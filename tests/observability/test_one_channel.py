"""One tracer channel: every layer records into the ambient tracer.

The query daemon's shared session has no tracer; each request makes
its own tracer ambient instead.  Since every instrumentation site
writes to ``current_tracer()``, a request's report must hold what a
traced in-process evaluation of the same query records — planning,
naive fallbacks, pool runs and worker spans included — and a traced
session must record the work of a materialized miss.
"""

import os

import pytest

from repro.core.alphabet import AB
from repro.core.database import Database
from repro.core.parser import parse_formula
from repro.core.query import Query
from repro.engine import QueryEngine
from repro.observability import Tracer
from repro.service import ServiceClient, serve_in_thread

GENERATE = "exists y: R2(y) & [x,y]l(x = y)"

#: (formula, explicit length, a span the path must record).  At
#: length 3 the stored ``abab`` lies outside ``Σ^{<=3}``, so the plan
#: degrades to the naive ``data-outside-domain`` fallback; at length 5
#: the same query joins ``R2`` and generates ``x``.
QUERIES = [
    pytest.param("R2(x) & [x]l(x = 'a')", None, "plan.limit", id="selection"),
    pytest.param(GENERATE, 3, "execute.naive", id="naive-fallback"),
    pytest.param(GENERATE, 5, "execute.generate", id="generate"),
]


def _db():
    return Database(AB, {"R2": [("ab",), ("b",), ("abab",)]})


def _names(report):
    return (
        {record.name for record in report.spans} - {"service.request"},
        set(report.counters),
        set(report.gauges),
    )


def _daemon_query(text, length, **options):
    """One query against a fresh daemon: its rows and request reports."""
    reports = []
    handle = serve_in_thread(
        _db(),
        on_report=lambda request, op, report: reports.append(report),
        **options,
    )
    try:
        with ServiceClient(*handle.address) as client:
            rows = client.query(text, ["x"], length=length)
    finally:
        handle.stop()
    return rows, reports


class TestDaemonReports:
    @pytest.mark.parametrize("text, length, span", QUERIES)
    def test_request_report_matches_traced_session(self, text, length, span):
        db = _db()
        session = QueryEngine(tracer=Tracer())
        query = Query(("x",), parse_formula(text), db.alphabet)
        answers = session.evaluate(query, db, length=length)
        expected = _names(session.trace_report())
        assert span in expected[0]

        rows, reports = _daemon_query(text, length)

        assert set(rows) == answers
        assert len(reports) == 1
        assert _names(reports[0]) == expected

    def test_pooled_request_report_holds_pool_and_worker_spans(
        self, pooled
    ):
        rows, reports = _daemon_query(GENERATE, 5, default_workers=2)
        assert rows
        spans = reports[0].spans
        assert {"executor.run", "shard.plan"} <= {
            record.name for record in spans
        }
        workers = {
            record.worker for record in spans if record.worker is not None
        }
        assert workers, "no worker-tagged spans in the request report"
        assert os.getpid() not in workers


class TestMaterializedMiss:
    def test_traced_miss_records_its_plan_execution(self):
        db = _db()
        session = QueryEngine(tracer=Tracer())
        query = Query(("x",), parse_formula("R2(x) & [x]l(x = 'a')"), AB)
        answers = session.evaluate(query, db, length=4, materialize=True)
        assert answers == {("ab",), ("abab",)}
        assert session.stats.snapshot()["evaluations"] == {"materialized": 1}
        report = session.trace_report()
        names = {record.name for record in report.spans}
        assert {"execute.join", "execute.filter"} <= names
        assert report.counters.get("simulate.runs", 0) >= 1
