"""QueryEngine session caching: warm vs. cold evaluation.

The same workload is evaluated through a fresh :class:`QueryEngine`
per run (cold — every Theorem 3.1 compilation, Lemma 3.1
specialization, limit analysis and plan is redone) and through one
long-lived session (warm — all of those are served from the
structural caches).  The equivalence assertion and the ≥5× speedup
assertion make this file the harness row for the PR-1 engine
acceptance criterion.

Run directly (``PYTHONPATH=src python benchmarks/bench_engine_cache.py``)
for a quick cold/warm report, or through pytest-benchmark for calibrated
timings.
"""

import time

from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.query import Query
from repro.core.syntax import And, exists, lift, rel
from repro.engine import QueryEngine


def _workload() -> list[Query]:
    """Representative mixed workload: selection, join, generation."""
    return [
        Query(
            ("x", "y"),
            And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
            AB,
        ),
        Query(
            ("x",),
            exists("y", And(rel("R1", "x", "y"), rel("R2", "y"))),
            AB,
        ),
        Query(
            ("x",),
            exists(
                ["y", "z"],
                And(
                    And(rel("R2", "y"), rel("R2", "z")),
                    lift(sh.concatenation("x", "y", "z")),
                ),
            ),
            AB,
        ),
    ]


def _evaluate_all(session, db, queries):
    return [session.evaluate(query, db) for query in queries]


def _best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_cold_session(benchmark, ab_database):
    queries = _workload()
    results = benchmark(
        lambda: _evaluate_all(QueryEngine(), ab_database, queries)
    )
    assert all(isinstance(r, frozenset) for r in results)


def test_warm_session(benchmark, ab_database):
    queries = _workload()
    session = QueryEngine()
    _evaluate_all(session, ab_database, queries)  # prime the caches
    results = benchmark(lambda: _evaluate_all(session, ab_database, queries))
    assert all(isinstance(r, frozenset) for r in results)


def test_warm_cache_speedup(ab_database):
    """Acceptance criterion: warm repeated evaluation is ≥5× faster
    than cold, with nonzero compile/generate/limit cache hits (a warm
    session serves generator runs from ``generate`` and specializes
    only on its misses)."""
    queries = _workload()
    expected = _evaluate_all(QueryEngine(), ab_database, queries)

    cold = _best_of(
        3, lambda: _evaluate_all(QueryEngine(), ab_database, queries)
    )

    session = QueryEngine()
    assert _evaluate_all(session, ab_database, queries) == expected
    warm = _best_of(3, lambda: _evaluate_all(session, ab_database, queries))
    assert _evaluate_all(session, ab_database, queries) == expected

    caches = session.stats.snapshot()["caches"]
    assert caches["compile"]["hits"] > 0
    assert caches["generate"]["hits"] > 0
    assert caches["limit"]["hits"] > 0
    assert cold >= 5 * warm, (
        f"warm ({warm * 1e3:.2f} ms) not ≥5× faster than cold "
        f"({cold * 1e3:.2f} ms)"
    )


def main() -> None:
    from repro.workloads import generators

    # Mirrors the ab_database fixture in benchmarks/conftest.py.
    db = generators.example_database(AB, seed=1, size=6, max_length=4)
    queries = _workload()
    cold = _best_of(3, lambda: _evaluate_all(QueryEngine(), db, queries))
    session = QueryEngine()
    _evaluate_all(session, db, queries)
    warm = _best_of(3, lambda: _evaluate_all(session, db, queries))
    print(f"cold: {cold * 1e3:8.2f} ms   (fresh QueryEngine per run)")
    print(f"warm: {warm * 1e3:8.2f} ms   (long-lived session)")
    print(f"speedup: {cold / warm:.1f}x")
    print(session.trace_report().summary())


if __name__ == "__main__":
    main()
