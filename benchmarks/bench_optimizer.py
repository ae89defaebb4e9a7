"""Optimizer speedup: planned disjunctions must beat the naive fallback.

Before the :mod:`repro.ir` layer, any disjunctive formula — the
paper's ``¬(¬φ ∧ ¬ψ)`` encoding — fell through every planner to the
naive candidate-space enumeration, which is exponential in the head
arity.  The normalizer now splits such formulae into a union of
conjunctive branches whose joins touch only database rows.

The acceptance gate (:func:`test_optimized_at_least_2x_faster`)
requires the optimized plan route to evaluate the disjunctive workload
at least :data:`SPEEDUP_FLOOR`× faster than the naive fallback it
replaces, with identical answers.  pytest-benchmark rows time both
routes; run the module directly
(``PYTHONPATH=src python benchmarks/bench_optimizer.py``) for a quick
report.
"""

import time

import pytest

from repro.core.alphabet import DNA
from repro.core.database import Database
from repro.core.query import Query
from repro.core.semantics import evaluate_naive
from repro.core.syntax import And, exists, f_or, rel
from repro.engine import QueryEngine
from repro.workloads import generators

#: Acceptance criterion: the optimized plan route must be at least
#: this many times faster than the naive fallback on the disjunctive
#: workload.
SPEEDUP_FLOOR = 2.0

#: Truncation bound of the workload; the naive route enumerates
#: ``|Σ^≤BOUND|^2`` head candidates at this setting.  The workload
#: database keeps every string within the bound, so the truncated
#: naive semantics and the join-based plans agree exactly.
BOUND = 3


def _database() -> Database:
    """A DNA database whose strings all fit within ``BOUND``."""
    strings = generators.uniform_strings(
        DNA, count=40, max_length=BOUND, min_length=1, seed=11
    )
    pairs = list(zip(strings[:20], strings[20:]))
    singles = generators.uniform_strings(
        DNA, count=14, max_length=BOUND, min_length=1, seed=13
    )
    return Database(
        DNA,
        {"R1": pairs, "R2": [(s,) for s in singles]},
    )


@pytest.fixture(scope="module")
def workload_database() -> Database:
    return _database()


def _query() -> Query:
    """A two-variable disjunction with a nested ∃ — the shape the old
    planner rejected wholesale."""
    return Query(
        ("x", "y"),
        f_or(
            And(rel("R1", "x", "y"), rel("R2", "y")),
            And(
                rel("R2", "x"),
                exists("z", And(rel("R1", "y", "z"), rel("R2", "z"))),
            ),
        ),
        DNA,
    )


def _run_naive(db):
    """The pre-IR fallback: brute-force enumeration of Σ^≤BOUND²."""
    query = _query()
    domain = tuple(DNA.strings(BOUND))
    return evaluate_naive(query.formula, query.head, db, domain)


def _run_optimized(db):
    """The plan route: normalized union of cost-ordered join branches."""
    session = QueryEngine()
    return session.evaluate(_query(), db, length=BOUND, engine="auto")


def _best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_answers_identical(workload_database):
    assert _run_optimized(workload_database) == _run_naive(workload_database)


def test_naive_fallback(benchmark, workload_database):
    answers = benchmark(lambda: _run_naive(workload_database))
    assert isinstance(answers, frozenset)


def test_optimized_plan(benchmark, workload_database):
    answers = benchmark(lambda: _run_optimized(workload_database))
    assert isinstance(answers, frozenset)


def test_optimized_at_least_2x_faster(workload_database):
    """Acceptance criterion: plan route ≥2× faster than the fallback."""
    assert _run_optimized(workload_database) == _run_naive(workload_database)
    naive = _best_of(3, lambda: _run_naive(workload_database))
    optimized = _best_of(3, lambda: _run_optimized(workload_database))
    speedup = naive / optimized
    assert speedup >= SPEEDUP_FLOOR, (
        f"optimized route only {speedup:.1f}× faster than the naive "
        f"fallback (naive {naive * 1e3:.1f} ms, optimized "
        f"{optimized * 1e3:.1f} ms); floor is {SPEEDUP_FLOOR:.0f}×"
    )


def main() -> None:
    db = _database()
    assert _run_optimized(db) == _run_naive(db)
    naive = _best_of(3, lambda: _run_naive(db))
    optimized = _best_of(3, lambda: _run_optimized(db))
    print(f"naive fallback:  {naive * 1e3:8.1f} ms")
    print(f"optimized plan:  {optimized * 1e3:8.1f} ms")
    print(f"speedup:         {naive / optimized:8.1f}× (floor {SPEEDUP_FLOOR:.0f}×)")


if __name__ == "__main__":
    main()
