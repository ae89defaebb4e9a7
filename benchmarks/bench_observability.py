"""Observability overhead: tracing must be ~free when disabled.

The acceptance criterion for the observability layer is that running
the :mod:`benchmarks.bench_parallel` workload with tracing *disabled*
(the default — every instrumentation point hits the ambient
:data:`~repro.observability.NULL_TRACER`) costs at most 5% over the
uninstrumented code.  The uninstrumented code no longer exists to race
against, so the budget is checked from first principles:

* measure the per-call cost of a disabled instrumentation point (an
  ambient-tracer lookup plus a no-op method call);
* run the workload once *traced* to count how many instrumentation
  events it actually fires (every counter increment and two clock
  edges per span);
* assert that ``events × per-call cost`` stays under 5% of the
  untraced workload's wall time.

The hot loops deliberately keep instrumentation out of the inner
iteration — :mod:`repro.fsa.simulate` and :mod:`repro.fsa.generate`
count configurations locally and report one bulk counter per machine
run — which is what keeps the event count (and therefore the disabled
overhead) small relative to the work.

pytest-benchmark rows time the same engine workload untraced vs traced
so regressions in either mode are visible; run the module directly
(``PYTHONPATH=src python benchmarks/bench_observability.py``) for a
quick report.
"""

import time

from repro.core import shorthands as sh
from repro.core.alphabet import DNA
from repro.core.query import Query
from repro.core.syntax import And, lift, rel
from repro.engine import QueryEngine
from repro.observability import Tracer, current_tracer

#: Acceptance criterion: disabled instrumentation adds at most this
#: fraction to the parallel benchmark workload.
OVERHEAD_BUDGET = 0.05

#: Domain truncation bound of the workload (mirrors bench_parallel's
#: moderate setting).
BOUND = 4


def _query() -> Query:
    return Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("y", "x"))),
        DNA,
    )


def _run_workload(db, tracer=None):
    session = QueryEngine(tracer=tracer)
    domain = session.domain_for(DNA, BOUND)
    answers = session.evaluate(_query(), db, domain=domain, workers=1)
    return session, answers


def _best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _disabled_cost_per_event(reps: int = 100_000) -> float:
    """Per-call wall time of one disabled instrumentation point."""

    def instrumented() -> None:
        for _ in range(reps):
            current_tracer().add("bench.noise")

    def baseline() -> None:
        for _ in range(reps):
            pass

    cost = _best_of(3, instrumented) - _best_of(3, baseline)
    return max(cost, 0.0) / reps


def _event_count(session) -> int:
    """Instrumentation events one traced workload run fires."""
    tracer = session.tracer
    counter_events = len(tracer.counters) and sum(
        1 for _ in tracer.counters
    )
    # Each counter name is bumped many times; the faithful count is the
    # number of add() calls, which equals the number of machine runs
    # plus per-span bookkeeping.  Spans cost two clock edges each.
    adds = int(tracer.counters.get("simulate.runs", 0))
    adds += int(tracer.counters.get("generate.machine_runs", 0))
    adds *= 2  # each run reports a runs counter and a bulk-size counter
    adds += counter_events  # remaining one-off counters
    spans = len(tracer.records()) + tracer.dropped_spans
    return adds + 2 * spans


def test_workload_untraced(benchmark, dna_database):
    session, answers = benchmark(lambda: _run_workload(dna_database))
    assert isinstance(answers, frozenset)
    assert session.trace_report().enabled is False


def test_workload_traced(benchmark, dna_database):
    session, answers = benchmark(
        lambda: _run_workload(dna_database, tracer=Tracer())
    )
    assert isinstance(answers, frozenset)
    assert session.trace_report().enabled is True


def test_disabled_overhead_within_budget(dna_database):
    """Acceptance criterion: ≤5% overhead with tracing disabled.

    ``events × per-event disabled cost`` bounds the instrumentation
    tax the workload pays when no tracer is active; it must stay
    within :data:`OVERHEAD_BUDGET` of the untraced wall time.
    """
    per_event = _disabled_cost_per_event()

    traced_session, _ = _run_workload(dna_database, tracer=Tracer())
    events = _event_count(traced_session)
    assert events > 0, "workload fired no instrumentation events"

    untraced = _best_of(3, lambda: _run_workload(dna_database))
    overhead = events * per_event
    assert overhead <= OVERHEAD_BUDGET * untraced, (
        f"disabled instrumentation tax {overhead * 1e3:.2f} ms "
        f"({events} events × {per_event * 1e9:.0f} ns) exceeds "
        f"{OVERHEAD_BUDGET:.0%} of the {untraced * 1e3:.0f} ms workload"
    )


def test_traced_answers_match_untraced(dna_database):
    _, untraced = _run_workload(dna_database)
    _, traced = _run_workload(dna_database, tracer=Tracer())
    assert traced == untraced


def main() -> None:
    from repro.core.database import Database
    from repro.workloads import generators

    fragments = generators.with_planted_motif(
        DNA, motif="gcgc", count=12, max_length=5, seed=2
    )
    pairs = generators.manifold_strings(
        DNA, count=6, max_base_length=2, max_repeats=3, seed=3
    )
    db = Database(
        DNA,
        {"R1": [tuple(p) for p in pairs], "R2": [(s,) for s in fragments]},
    )
    untraced = _best_of(3, lambda: _run_workload(db))
    traced = _best_of(3, lambda: _run_workload(db, tracer=Tracer()))
    per_event = _disabled_cost_per_event()
    session, _ = _run_workload(db, tracer=Tracer())
    events = _event_count(session)
    print(f"untraced:        {untraced * 1e3:8.1f} ms")
    print(f"traced:          {traced * 1e3:8.1f} ms")
    print(f"disabled cost:   {per_event * 1e9:8.0f} ns/event × {events} events")
    print(
        f"disabled tax:    {events * per_event / untraced:8.2%} "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


if __name__ == "__main__":
    main()
