"""What every workload shares: timing loops, setup timing, the result.

In-process workloads drive one ``QueryEngine`` session in a closed
loop (one operation at a time).  Untraced runs time every operation
with the program unmodified.  Traced runs alternate by step (one call
of the workload's step function): even steps run untraced, odd ones
with the session tracer on and the layer wrappers installed.  Both
halves see the same mix of operations, so ``trace.overhead_ratio``
compares like with like.

Every end-to-end time is scaled to a nominal host speed by probes
taken between operations (:mod:`perfbench.hostspeed`); the per-layer
metrics of traced runs are not scaled.
"""

from __future__ import annotations

import os
import platform
import resource
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from perfbench import stats
from perfbench.hostspeed import Speedometer
from perfbench.layers import Installed, LayerClock, per_layer_metrics

#: Spans one traced operation may retain, far above what one needs, so
#: the stage times cover every span.
OP_MAX_SPANS = 1 << 16

#: Setup repetitions whose median is ``setup_s``.
SETUP_REPS = 5

#: The CPUs this process may use, read before anything is pinned.
_CPUS = tuple(sorted(os.sched_getaffinity(0)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB of 2**20 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid``, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def program_cpu() -> int:
    """The one CPU every process of a run is pinned to.

    Pinned, the program does not migrate between CPUs of different
    speed during a run, and the host-speed probes taken on that CPU
    describe everything the run measures.  The service workload's load
    process shares it with the daemon: on its own CPU it would also
    slow the daemon whenever the two CPUs share a core.
    """
    return _CPUS[-1]


def pin(cpu: int) -> None:
    """Pin the calling process to ``cpu``."""
    os.sched_setaffinity(0, {cpu})


def host() -> dict:
    """The host facts recorded with every result."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def timed_setup(build):
    """Run ``build()`` :data:`SETUP_REPS` times; (median seconds, last state).

    Each duration is scaled to the nominal host speed by probes taken
    right before and after it (:mod:`perfbench.hostspeed`).  Earlier
    states are dropped before the next build starts, so peak memory
    holds one state at a time.
    """
    speed = Speedometer()
    durations = []
    state = None
    for _ in range(SETUP_REPS):
        state = None
        speed.take()
        started = perf_counter()
        state = build()
        ended = perf_counter()
        speed.take()
        durations.append((ended - started) * speed.between(started, ended))
    return stats.median(durations), state


def setup(build, trace: bool):
    """``(setup_s, state, build_s)`` for a workload's ``build``.

    In a traced run the builds run under the layer wrappers and
    ``build_s`` is the storage-build seconds of one build; ``setup_s``
    is then not reported.
    """
    if not trace:
        setup_s, state = timed_setup(build)
        return setup_s, state, 0.0
    clock = LayerClock()
    with Installed(clock):
        setup_s, state = timed_setup(build)
    return setup_s, state, clock.seconds()["build"] / SETUP_REPS


@dataclass
class TraceTotals:
    """What the traced operations of a run add up to."""

    clock: LayerClock = field(default_factory=LayerClock)
    counters: dict = field(default_factory=lambda: defaultdict(float))
    stages: dict = field(default_factory=lambda: defaultdict(float))
    ops: int = 0
    answer_rows: int = 0

    def absorb_report(self, report) -> None:
        """Add one operation's ``TraceReport`` stage times and counters."""
        for stage, bucket in report.stages.items():
            self.stages[stage] += bucket["seconds"]
        for name, value in report.counters.items():
            self.counters[name] += value

    def counter_sum(self, prefix: str) -> float:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(
            value for name, value in self.counters.items()
            if name.startswith(prefix)
        )


class Loop:
    """Closed-loop timing of one in-process session's operations.

    Args:
        session: The ``QueryEngine`` every operation goes through.
        trace: Whether odd steps run traced.
    """

    def __init__(self, session, trace: bool) -> None:
        self.session = session
        self.trace = trace
        #: Untraced latencies by class and in the order the operations
        #: ran, scaled to the nominal host speed by :meth:`scale`.
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.sequence: list[float] = []
        self.speed = Speedometer()
        #: ``(kind, started, elapsed)`` of every untraced operation.
        self._measured: list[tuple[str, float, float]] = []
        self.busy = 0.0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.traced = TraceTotals()
        self.traced_busy = 0.0
        self.failures: list[str] = []
        self._steps = 0
        self._traced_step = False

    def begin_step(self) -> None:
        """Start a step; in a traced run every other step is traced."""
        self._traced_step = self.trace and self._steps % 2 == 1
        self._steps += 1

    def op(self, kind: str, fn, check) -> object:
        """Run ``fn()`` as one timed operation of class ``kind``.

        ``check(result)`` is the oracle; it runs outside the timed
        region and returns ``None`` when the answer is right, or a
        one-line description of what is wrong.
        """
        from repro.observability import NULL_TRACER, TraceReport, Tracer

        traced = self._traced_step
        self.attempted += 1
        try:
            if traced:
                tracer = Tracer(max_spans=OP_MAX_SPANS)
                self.session.tracer = tracer
                try:
                    with Installed(self.traced.clock):
                        started = perf_counter()
                        result = fn()
                        elapsed = perf_counter() - started
                finally:
                    self.session.tracer = NULL_TRACER
                self.traced.absorb_report(TraceReport.build(tracer))
            else:
                started = perf_counter()
                result = fn()
                elapsed = perf_counter() - started
        except Exception as error:  # a failed op counts, the run goes on
            self.failed += 1
            self.failures.append(f"{kind}: {type(error).__name__}: {error}")
            return None
        problem = check(result)
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{kind}: {problem}")
        if traced:
            self.traced.ops += 1
            self.traced_busy += elapsed
            if isinstance(result, (set, frozenset)):
                self.traced.answer_rows += len(result)
        else:
            self.ops += 1
            self.busy += elapsed
            self._measured.append((kind, started, elapsed))
        return result

    def scale(self) -> None:
        """Fill :attr:`latencies` and :attr:`sequence`, host-scaled."""
        self.latencies.clear()
        self.sequence.clear()
        for kind, started, elapsed in self._measured:
            scaled = elapsed * self.speed.between(started, started + elapsed)
            self.latencies[kind].append(scaled)
            self.sequence.append(scaled)

    def untraced_rate(self) -> float:
        """Untraced operations per scaled busy second."""
        return stats.rate(self.ops, sum(self.sequence))

    def cycle_rate(self, cycle: int) -> float:
        """Operations per second of the median complete cycle.

        A workload whose operations repeat in a fixed cycle of ``cycle``
        operations reports its throughput this way: every cycle holds
        the same mix, and the median ignores the cycles a busy
        neighbour on the host slowed down, which a mean over the run
        would not.  Runs shorter than one cycle fall back to the mean.
        """
        totals = [
            sum(self.sequence[start:start + cycle])
            for start in range(0, len(self.sequence) - cycle + 1, cycle)
        ]
        if not totals:
            return self.untraced_rate()
        return stats.rate(cycle, stats.median(totals))

    def overhead_ratio(self) -> float:
        """Untraced over traced operations per (measured) busy second."""
        if not self.traced.ops:
            return 0.0
        return stats.rate(self.ops, self.busy) / stats.rate(
            self.traced.ops, self.traced_busy
        )


def run_for(seconds: float, loop: Loop, step) -> float:
    """Run steps until ``seconds`` of wall time have passed.

    Host-speed probes run between steps, never inside one; at the end
    the loop's latencies are scaled by them.
    """
    started = perf_counter()
    deadline = started + seconds
    loop.speed.take()
    while perf_counter() < deadline:
        loop.begin_step()
        step()
        loop.speed.maybe_take()
    loop.speed.take()
    loop.scale()
    return perf_counter() - started


def latency_ms(samples: list[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``samples`` (seconds) in ms."""
    return stats.percentile(samples, fraction) * 1e3


def end_to_end(setup_s: float, ops_per_s: float, reads: list[float],
               rss_mb: float, block: int | None = None) -> dict:
    """The end-to-end metrics every workload reports.

    ``reads`` are read latencies in the order they were measured.  With
    a ``block`` size the read percentiles are medians over blocks of
    that many reads (:func:`perfbench.stats.block_percentile`); without
    one they are pooled over the run.
    """
    def read_ms(fraction: float) -> float:
        if block is None:
            return latency_ms(reads, fraction)
        return stats.block_percentile(reads, fraction, block) * 1e3

    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "query_p50_ms": (read_ms(0.5), "ms"),
        "query_p90_ms": (read_ms(0.9), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def read_notes(reads: list[float]) -> list:
    """Sample counts and within-run spread behind the read percentiles."""
    return [
        ("reads", len(reads), "count"),
        ("reads_beyond_p90", stats.beyond(reads, 0.9), "count"),
        ("read_latency_iqr_share", stats.spread(reads), "ratio"),
    ]


def cache_totals(session) -> tuple[int, int, int]:
    """``(hits, lookups, entries)`` over the session's caches."""
    caches = session.stats.caches
    hits = sum(cache.hits for cache in caches.values())
    lookups = sum(cache.lookups for cache in caches.values())
    registered = {id(cache) for cache in caches.values()}
    entries = sum(
        len(value)
        for value in vars(session).values()
        if id(getattr(value, "stats", None)) in registered
    )
    return hits, lookups, entries


@dataclass
class Result:
    """One workload run, before it is printed.

    ``end_to_end`` and ``per_layer`` map metric names to ``(value,
    unit)``; ``notes`` are extra ``(name, value, unit)`` lines printed
    for a reader but kept out of the machine-read result.
    """

    attempted: int
    failed: int
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def layer_metrics(loop: Loop, session, build_s: float) -> dict:
    """The per-layer metrics of an in-process run's traced half."""
    totals = loop.traced
    return per_layer_metrics(
        ops=totals.ops,
        seconds=totals.clock.seconds(),
        counters=totals.counter_sum,
        stages=totals.stages,
        candidate_rows=totals.clock.candidate_rows,
        slp_expanded_chars=totals.clock.slp_expanded_chars,
        answer_rows=totals.answer_rows,
        cache=cache_totals(session),
        build_s=build_s,
        overhead_ratio=loop.overhead_ratio(),
    )
