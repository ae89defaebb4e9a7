"""Sharded parallel evaluation: 1 worker vs N workers.

The heaviest workload in the harness is brute-force candidate-space
filtering: a two-variable selection over an explicit ``Σ^{<=l}``
domain of the DNA alphabet, giving ``|domain|²`` candidates sharded by
mixed-radix index ranges across the process pool.  The file provides

* pytest-benchmark rows for ``auto`` at one and at several workers on
  a moderate candidate space (also the CI smoke path), and
* the acceptance assertion — ≥1.5× speedup at 4 workers on the heavy
  candidate space — gated on the host actually having 4 CPUs, since a
  process pool cannot beat sequential execution on a single core.

Every run cross-checks the parallel answer set against the sequential
one; a benchmark that got faster by being wrong must fail.

Run directly (``PYTHONPATH=src python benchmarks/bench_parallel.py``)
for a quick report, or through pytest-benchmark for calibrated
timings.
"""

import os
import time

from repro.core import shorthands as sh
from repro.core.alphabet import DNA
from repro.core.query import Query
from repro.core.syntax import And, lift, rel
from repro.engine import QueryEngine

#: Acceptance criterion: multi-worker speedup on the heavy workload.
SPEEDUP_WORKERS = 4
SPEEDUP_FLOOR = 1.5

#: Truncation bounds for the two workload sizes (|Σ^{<=l}|² candidates
#: over DNA: 4 → ~116k, 5 → ~1.86M).
MODERATE_BOUND = 4
HEAVY_BOUND = 5


def _query() -> Query:
    return Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("y", "x"))),
        DNA,
    )


def _evaluate(session, db, workers, bound):
    """The answers plus the session's running parallel totals."""
    domain = session.domain_for(DNA, bound)
    answers = session.evaluate(_query(), db, domain=domain, workers=workers)
    return answers, session.stats.snapshot()["parallel"]


def _best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_single_worker(benchmark, dna_database):
    session = QueryEngine()
    answers, report = benchmark(
        lambda: _evaluate(session, dna_database, 1, MODERATE_BOUND)
    )
    assert report.get("runs", 0) == 0  # one worker builds no pool
    assert isinstance(answers, frozenset)


def test_multi_worker(benchmark, dna_database):
    session = QueryEngine()
    answers, report = benchmark(
        lambda: _evaluate(
            session, dna_database, SPEEDUP_WORKERS, MODERATE_BOUND
        )
    )
    assert report["pooled_runs"] >= 1
    sequential, _ = _evaluate(session, dna_database, 1, MODERATE_BOUND)
    assert answers == sequential


def test_parallel_speedup(dna_database):
    """Acceptance criterion: ≥1.5× at 4 workers on the heavy workload.

    Requires 4 real CPUs — a pool of 4 processes multiplexed onto one
    core can only lose to the sequential path, so the assertion is
    meaningless (and guaranteed to fail) on smaller hosts.
    """
    import pytest

    cpus = os.cpu_count() or 1
    if cpus < SPEEDUP_WORKERS:
        pytest.skip(
            f"speedup needs >= {SPEEDUP_WORKERS} CPUs, host has {cpus}"
        )
    session = QueryEngine()
    sequential, _ = _evaluate(session, dna_database, 1, HEAVY_BOUND)
    parallel, report = _evaluate(
        session, dna_database, SPEEDUP_WORKERS, HEAVY_BOUND
    )
    assert parallel == sequential
    assert report["pooled_runs"] >= 1

    single = _best_of(
        2, lambda: _evaluate(session, dna_database, 1, HEAVY_BOUND)
    )
    multi = _best_of(
        2,
        lambda: _evaluate(
            session, dna_database, SPEEDUP_WORKERS, HEAVY_BOUND
        ),
    )
    speedup = single / multi
    assert speedup >= SPEEDUP_FLOOR, (
        f"{SPEEDUP_WORKERS}-worker speedup {speedup:.2f}x below "
        f"{SPEEDUP_FLOOR}x (1w {single * 1e3:.0f} ms, "
        f"{SPEEDUP_WORKERS}w {multi * 1e3:.0f} ms)"
    )


def main() -> None:
    from repro.core.database import Database
    from repro.workloads import generators

    # Mirrors the dna_database fixture in benchmarks/conftest.py.
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
    session = QueryEngine()
    bound = HEAVY_BOUND
    single = _best_of(2, lambda: _evaluate(session, db, 1, bound))
    multi = _best_of(
        2, lambda: _evaluate(session, db, SPEEDUP_WORKERS, bound)
    )
    print(f"1 worker:  {single * 1e3:8.0f} ms")
    print(f"{SPEEDUP_WORKERS} workers: {multi * 1e3:8.0f} ms")
    print(f"speedup:   {single / multi:.2f}x  ({os.cpu_count()} CPUs)")
    for line in session.trace_report().summary().splitlines():
        if line.startswith("parallel"):
            print(line)


if __name__ == "__main__":
    main()
