"""Host speed, from a fixed reference workload timed between operations.

A shared host changes speed by up to 2x for seconds at a time (a busy
neighbour on the same core), and such a phase can last a whole run, so
no statistic over one run's own samples can remove it.  The benchmark
therefore times a small fixed piece of pure Python (:func:`reference`:
dict updates, tuple keys, substring tests and string building over a
seeded word list, the operations the program's inner loops are made of)
every :data:`INTERVAL` seconds between operations, never inside one,
and scales each time it reports to a host on which the reference takes
:data:`NOMINAL_S`::

    reported = measured * NOMINAL_S / reference time around that moment

On this kind of host the ratio of a query's latency to the reference
stays within about 5% while both swing by 1.8x.  The reference does
not call the program, so a change to the program moves the scaled
times exactly as it moves the measured ones.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from time import perf_counter

from perfbench import stats

#: Reference seconds on the host the scaled times are expressed for.
NOMINAL_S = 150e-6
#: Seconds between probes.
INTERVAL = 0.05
#: Timed runs of :func:`reference` per probe; the probe is their median.
PROBE_RUNS = 3
#: Probes on each side of a moment that its speed is the median of.
NEIGHBOURS = 3

_rng = random.Random(0x5EED)
WORDS = tuple(
    "".join(_rng.choice("acgt") for _ in range(_rng.randint(4, 24)))
    for _ in range(400)
)


def reference() -> int:
    """The fixed reference work (about 150 us on a quiet host)."""
    seen: dict = {}
    kept = []
    for word in WORDS:
        key = (word[:3], len(word))
        seen[key] = seen.get(key, 0) + 1
        if "ag" in word:
            kept.append(word.upper())
    return len(kept) + len(seen)


def probe() -> float:
    """Seconds the reference takes right now (median of a few runs)."""
    durations = []
    for _ in range(PROBE_RUNS):
        started = perf_counter()
        reference()
        durations.append(perf_counter() - started)
    return stats.median(durations)


class Speedometer:
    """Probes taken during a run, and the scale factor at any moment."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.probes: list[float] = []
        self._due = 0.0

    def take(self) -> None:
        """Probe now."""
        stamp = perf_counter()
        self.probes.append(probe())
        self.stamps.append(stamp)
        self._due = perf_counter() + INTERVAL

    def maybe_take(self) -> None:
        """Probe if :data:`INTERVAL` has passed since the last probe."""
        if perf_counter() >= self._due:
            self.take()

    def factor(self, when: float) -> float:
        """``NOMINAL_S`` over the reference time around ``when``."""
        if not self.probes:
            raise ValueError("no probe was taken")
        index = bisect_left(self.stamps, when)
        nearby = self.probes[
            max(0, index - NEIGHBOURS):index + NEIGHBOURS
        ]
        return NOMINAL_S / stats.median(nearby)

    def between(self, started: float, ended: float) -> float:
        """The factor for an interval (that of its midpoint)."""
        return self.factor((started + ended) / 2)
