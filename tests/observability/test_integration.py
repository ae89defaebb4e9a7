"""End-to-end tracing through the engine and the process pool.

Covers the acceptance-critical properties: a traced session fills all
ten canonical pipeline stages, worker-side spans and counters fold
back into the parent tracer across pool workers, and tracing never
changes query answers.
"""

import os

import pytest

from repro.core import shorthands as sh
from repro.core.alphabet import AB
from repro.core.query import Query
from repro.core.syntax import And, exists, lift, rel
from repro.delta import Delta
from repro.engine import QueryEngine
from repro.observability import STAGES, Tracer
from repro.workloads.generators import example_database


@pytest.fixture()
def db():
    return example_database(AB, seed=3, size=4, max_length=3)


@pytest.fixture()
def pooled(pooled):
    """The shared ``pooled`` fixture, planning four shards per pool."""
    pooled["shards"] = 4
    return pooled


def _prefix_query():
    return Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.prefix_of("x", "y"))),
        AB,
    )


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


def _pooled(workers=2):
    """``evaluate`` keywords for a pooled run (with the ``pooled`` fixture)."""
    return {"workers": workers}


class TestStageCoverage:
    def test_one_session_fills_all_ten_stages(self, db, pooled):
        session = QueryEngine(tracer=Tracer())
        session.evaluate(_concat_query(), db, **_pooled())
        session.evaluate(_prefix_query(), db, engine="algebra", length=3)
        session.apply_delta(db, Delta.of(inserts={"R1": [("a", "b")]}))
        report = session.trace_report()
        empty = [
            stage
            for stage in STAGES
            if report.stages[stage]["spans"] < 1
        ]
        assert not empty, f"stages without spans: {empty}"
        assert report.enabled

    def test_metrics_document_covers_all_ten_stages(
        self, db, tmp_path, pooled
    ):
        session = QueryEngine(tracer=Tracer())
        session.evaluate(_concat_query(), db, **_pooled())
        session.evaluate(_prefix_query(), db, engine="algebra", length=3)
        session.apply_delta(db, Delta.of(inserts={"R1": [("a", "b")]}))
        path = tmp_path / "metrics.json"
        session.trace_report().write(str(path))
        import json

        data = json.loads(path.read_text(encoding="utf-8"))
        assert set(data["stages"]) == set(STAGES)
        for stage in STAGES:
            assert data["stages"][stage]["spans"] >= 1


class TestWorkerFoldBack:
    def test_pool_spans_come_back_worker_tagged(self, db, pooled):
        session = QueryEngine(tracer=Tracer())
        session.evaluate(_concat_query(), db, **_pooled(workers=2))
        assert session.stats.snapshot()["parallel"]["pooled_runs"] == 1
        workers = {
            record.worker
            for record in session.tracer.records()
            if record.worker is not None
        }
        assert workers, "no worker-tagged spans folded back"
        assert os.getpid() not in workers

    def test_absorbed_worker_spans_nest_under_the_run(self, db, pooled):
        session = QueryEngine(tracer=Tracer())
        session.evaluate(_concat_query(), db, **_pooled())
        records = session.tracer.records()
        by_id = {record.span_id: record for record in records}
        worker_roots = [
            record
            for record in records
            if record.worker is not None
            and (record.parent_id is None
                 or by_id[record.parent_id].worker is None)
        ]
        assert worker_roots
        for record in worker_roots:
            assert record.parent_id is not None, (
                "worker root span was not re-parented under the run"
            )
            assert by_id[record.parent_id].name == "executor.run"

    def test_counters_aggregate_identically_across_pool_sizes(
        self, db, pooled
    ):
        query = _concat_query()
        sequential = QueryEngine(tracer=Tracer())
        sequential.evaluate(query, db, **_pooled(workers=1))
        pool = QueryEngine(tracer=Tracer())
        pool.evaluate(query, db, **_pooled(workers=2))
        name = "generate.machine_runs"
        assert sequential.tracer.counters.get(name, 0) > 0
        assert (
            pool.tracer.counters.get(name, 0)
            == sequential.tracer.counters[name]
        )


class TestTracingIsInert:
    def test_traced_and_untraced_answers_are_identical(self, db, pooled):
        # the naive engine needs an explicit truncation bound: the
        # certified limit of the concat query is too loose to enumerate
        for kwargs_factory in (
            lambda: _pooled(workers=2),
            lambda: {"engine": "auto", "workers": 1},
            lambda: {"engine": "naive", "length": 3},
        ):
            untraced = QueryEngine().evaluate(
                _concat_query(), db, **kwargs_factory()
            )
            traced = QueryEngine(tracer=Tracer()).evaluate(
                _concat_query(), db, **kwargs_factory()
            )
            assert traced == untraced

    def test_traced_algebra_matches_untraced(self, db):
        untraced = QueryEngine().evaluate(
            _prefix_query(), db, engine="algebra", length=3
        )
        traced = QueryEngine(tracer=Tracer()).evaluate(
            _prefix_query(), db, engine="algebra", length=3
        )
        assert traced == untraced

    def test_untraced_session_reports_disabled_but_stable_schema(self, db):
        session = QueryEngine()
        session.evaluate(_prefix_query(), db, engine="auto")
        report = session.trace_report()
        assert report.enabled is False
        assert tuple(report.to_dict()["stages"]) == STAGES
        assert report.spans == []
