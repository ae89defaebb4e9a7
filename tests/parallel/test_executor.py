"""Unit and integration tests for the parallel executor layer.

Covers the pieces the differential harness exercises only indirectly:
the sequential-fallback policy, the execution report and its session
accounting, worker-cache write-back, batch evaluation, and the auto
engine's size heuristic.
"""

import pytest

from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.query import Query
from repro.core.syntax import And, exists, lift, rel
from repro.engine import EngineStats, QueryEngine
from repro.engine import strategies
from repro.observability import NULL_TRACER, TraceReport
from repro.parallel import (
    NaiveShardTask,
    ParallelExecutor,
    ShardPlanner,
    default_worker_count,
    shutdown_pools,
)
from repro.workloads.generators import example_database


@pytest.fixture()
def db():
    return example_database(AB, seed=3, size=4, max_length=3)


def _prefix_query():
    return Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
        AB,
    )


def _naive_tasks(executor, db):
    """The prefix query's ``Σ^{<=2}`` candidates, sharded by ``executor``."""
    query = _prefix_query()
    domain = tuple(AB.strings(2))
    return [
        NaiveShardTask(shard, query.formula, query.head, db, domain)
        for shard in executor.plan(len(domain) ** len(query.head))
    ]


def _concat_query():
    return Query(
        ("x",),
        exists(
            ["y", "z"],
            And(
                And(rel("R2", "y"), rel("R2", "z")),
                lift(sh.concatenation("x", "y", "z")),
            ),
        ),
        AB,
    )


class TestExecutorPolicy:
    def test_empty_task_list_is_a_no_op(self):
        executor = ParallelExecutor(workers=4)
        assert executor.run([]) == []
        assert executor.report.shards_planned == 0
        assert executor.report.shards_completed == 0

    def test_single_worker_runs_sequentially(self, db):
        executor = ParallelExecutor(
            workers=1, planner=ShardPlanner(4), min_parallel_items=1
        )
        executor.run(_naive_tasks(executor, db))
        assert executor.report.mode == "sequential"
        assert executor.report.workers == 1

    def test_tiny_input_falls_back_to_sequential(self, db):
        """Below min_parallel_items the pool is never touched, even
        with many workers configured."""
        executor = ParallelExecutor(
            workers=4, planner=ShardPlanner(4), min_parallel_items=10_000
        )
        executor.run(_naive_tasks(executor, db))
        assert executor.report.mode == "sequential"
        assert executor.report.shards_completed == (
            executor.report.shards_planned
        )

    def test_plan_respects_explicit_shard_count(self):
        executor = ParallelExecutor(workers=2, planner=ShardPlanner(5))
        assert len(executor.plan(100)) == 5

    def test_default_worker_count_is_positive(self):
        assert default_worker_count() >= 1

    def test_shutdown_pools_is_idempotent(self):
        shutdown_pools()
        shutdown_pools()


class TestExecutionReport:
    def test_report_counts_and_describe(self, db):
        executor = ParallelExecutor(
            workers=2, planner=ShardPlanner(3), min_parallel_items=1
        )
        executor.run(_naive_tasks(executor, db))
        report = executor.report
        assert report.mode == "parallel"
        assert report.workers == 2
        assert report.shards_planned == 3
        assert report.shards_completed == 3
        assert report.retries == 0
        assert report.wall_seconds > 0.0
        stats = EngineStats()
        stats.record_parallel(report)
        text = TraceReport.build(NULL_TRACER, stats).summary()
        assert "parallel runs=1 shards=3/3" in text
        snapshot = report.snapshot()
        assert snapshot["shards_completed"] == 3

    def test_session_stats_accumulate_reports(self, db, pooled):
        pooled["shards"] = 3
        session = QueryEngine()
        domain = session.domain_for(AB, 2)
        for _ in range(2):
            session.evaluate(_prefix_query(), db, domain=domain, workers=2)
        totals = session.stats.snapshot()["parallel"]
        assert totals["runs"] == 2
        assert totals["pooled_runs"] == 2
        assert totals["shards_completed"] == 6
        assert "parallel runs=2" in session.trace_report().summary()

    def test_worker_results_fold_back_into_session_cache(self, db, pooled):
        """Second run of a generate-shaped query is served from the
        session cache: the report shows hits and no live shards."""
        pooled["shards"] = 3
        session = QueryEngine()
        query = _concat_query()
        bound = db.max_string_length() + 1

        cold = session.evaluate(query, db, length=bound, workers=2)
        first = dict(session.stats.snapshot()["parallel"])
        assert first["cache_hits"] == 0

        warm = session.evaluate(query, db, length=bound, workers=2)
        second = session.stats.snapshot()["parallel"]
        assert warm == cold
        assert second["cache_hits"] > 0
        assert second["shards_planned"] == first["shards_planned"]


class TestSessionIntegration:
    def test_evaluate_many_with_workers_matches_individual(self, db, pooled):
        pooled["shards"] = 3
        session = QueryEngine()
        queries = [_prefix_query(), _concat_query()]
        bound = db.max_string_length() + 1
        batch = session.evaluate_many(queries, db, length=bound, workers=2)
        individual = [
            session.evaluate(q, db, length=bound, engine="naive")
            for q in queries
        ]
        assert batch == individual

    def test_workers_kwarg_ignored_by_unconfigurable_engines(self, db):
        """Engines without a ``configured`` hook accept the kwarg
        silently — sessions stay engine-agnostic."""
        session = QueryEngine()
        bound = db.max_string_length() + 1
        got = session.evaluate(
            _prefix_query(), db, length=bound, engine="naive", workers=4
        )
        want = session.evaluate(
            _prefix_query(), db, length=bound, engine="naive"
        )
        assert got == want


class TestAutoHeuristic:
    def test_auto_upgrades_to_parallel_above_threshold(self, db, monkeypatch):
        monkeypatch.setattr(strategies, "AUTO_PARALLEL_THRESHOLD", 1)
        session = QueryEngine()
        bound = db.max_string_length() + 1
        want = session.evaluate(
            _prefix_query(), db, length=bound, engine="naive"
        )
        got = session.evaluate(
            _prefix_query(), db, length=bound, engine="auto", workers=2
        )
        assert got == want
        assert session.stats.snapshot()["parallel"]["runs"] == 1

    def test_auto_stays_sequential_below_threshold(self, db, monkeypatch):
        monkeypatch.setattr(strategies, "AUTO_PARALLEL_THRESHOLD", 10**9)
        session = QueryEngine()
        bound = db.max_string_length() + 1
        session.evaluate(
            _prefix_query(), db, length=bound, engine="auto", workers=4
        )
        assert session.stats.snapshot()["parallel"].get("runs", 0) == 0

    def test_auto_single_worker_never_records_parallel(self, db):
        session = QueryEngine()
        bound = db.max_string_length() + 1
        session.evaluate(
            _prefix_query(), db, length=bound, engine="auto", workers=1
        )
        assert session.stats.snapshot()["parallel"].get("runs", 0) == 0


class TestTaskNarrowing:
    def test_narrowed_naive_task_covers_child_range(self, db):
        """Re-split tasks must slice the original candidate range, not
        restart it — the crash-retry correctness hinge."""
        session = QueryEngine()
        domain = session.domain_for(AB, 2)
        query = _prefix_query()
        planner = ShardPlanner(shards=1)
        (shard,) = planner.plan(len(domain) ** 2, workers=1)
        task = NaiveShardTask(
            shard, query.formula, query.head, db, domain
        )
        whole = task.run()
        merged: set = set()
        for child in shard.split(3):
            merged |= set(task.narrowed(child).run())
        assert merged == set(whole)
