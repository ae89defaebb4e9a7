"""Tracer unit tests: span nesting, counters, fold-back, ambience."""

import pytest

from repro.observability import (
    DEFAULT_MAX_SPANS,
    NULL_TRACER,
    STAGES,
    NullTracer,
    SpanRecord,
    Tracer,
    activate,
    current_tracer,
)


class TestStages:
    def test_canonical_order(self):
        assert STAGES == (
            "compile",
            "specialize",
            "normalize",
            "translate",
            "optimize",
            "plan",
            "shard",
            "execute",
            "fold",
            "delta",
        )


class TestSpanNesting:
    def test_records_appear_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer", stage="plan"):
            with tracer.span("inner", stage="execute"):
                pass
        names = [record.name for record in tracer.records()]
        assert names == ["inner", "outer"]

    def test_child_records_parent_id(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records()
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        first, second, outer = tracer.records()
        assert first.parent_id == outer.span_id
        assert second.parent_id == outer.span_id
        assert first.span_id != second.span_id

    def test_start_offsets_are_monotonic_among_siblings(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.records()
        assert 0.0 <= first.start <= second.start
        assert first.duration >= 0.0

    def test_attributes_round_trip_and_set(self):
        tracer = Tracer()
        with tracer.span("op", stage="execute", items=3) as span:
            span.set(answers=7)
        (record,) = tracer.records()
        assert dict(record.attributes) == {"items": 3, "answers": 7}
        assert record.stage == "execute"

    def test_exception_records_error_attribute_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (record,) = tracer.records()
        assert dict(record.attributes)["error"] == "ValueError"
        # the stack unwound: the next span is a root again
        with tracer.span("after"):
            pass
        assert tracer.records()[-1].parent_id is None

    def test_max_spans_drops_and_counts(self):
        tracer = Tracer(max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.records()) == 2
        assert tracer.dropped_spans == 3

    def test_default_retention_cap(self):
        assert Tracer().max_spans == DEFAULT_MAX_SPANS


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.add("hits")
        tracer.add("hits", 4)
        assert tracer.counters["hits"] == 5

    def test_gauges_last_write_wins(self):
        tracer = Tracer()
        tracer.gauge("space", 10)
        tracer.gauge("space", 3)
        assert tracer.gauges["space"] == 3


class TestAbsorb:
    def _worker_export(self):
        worker = Tracer()
        with worker.span("execute.shard", stage="execute"):
            with worker.span("simulate.run", stage="execute"):
                pass
        worker.add("simulate.runs", 2)
        worker.gauge("depth", 4)
        return worker.export()

    def test_absorbed_roots_reparent_under_current_span(self):
        records, counters, gauges = self._worker_export()
        parent = Tracer()
        with parent.span("executor.run") as _:
            parent.absorb(records, counters, gauges, worker=1234)
        by_name = {record.name: record for record in parent.records()}
        run = by_name["executor.run"]
        shard = by_name["execute.shard"]
        inner = by_name["simulate.run"]
        assert shard.parent_id == run.span_id
        assert inner.parent_id == shard.span_id

    def test_absorbed_ids_do_not_collide(self):
        records, counters, gauges = self._worker_export()
        parent = Tracer()
        with parent.span("local"):
            pass
        parent.absorb(records, counters, gauges)
        ids = [record.span_id for record in parent.records()]
        assert len(ids) == len(set(ids))

    def test_absorbed_records_are_worker_tagged(self):
        records, counters, gauges = self._worker_export()
        parent = Tracer()
        parent.absorb(records, counters, gauges, worker=77)
        assert {record.worker for record in parent.records()} == {77}

    def test_absorbed_counters_and_gauges_merge(self):
        records, counters, gauges = self._worker_export()
        parent = Tracer()
        parent.add("simulate.runs", 1)
        parent.absorb(records, counters, gauges, worker=77)
        assert parent.counters["simulate.runs"] == 3
        assert parent.gauges["depth"] == 4


class TestAmbientTracer:
    def test_defaults_to_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_activate_scopes_and_restores(self):
        tracer = Tracer()
        with activate(tracer) as active:
            assert active is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_activation_nests(self):
        outer, inner = Tracer(), Tracer()
        with activate(outer):
            with activate(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer


class TestNullTracer:
    def test_is_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        with tracer.span("anything", stage="execute", x=1) as span:
            span.set(y=2)
        tracer.add("c", 3)
        tracer.gauge("g", 4)
        assert tracer.records() == ()
        assert tracer.export() == ((), {}, {})

    def test_absorb_discards(self):
        record = SpanRecord(
            span_id=1, parent_id=None, name="n", stage=None,
            start=0.0, duration=0.0,
        )
        NULL_TRACER.absorb([record], {"c": 1}, {"g": 2}, worker=5)
        assert NULL_TRACER.records() == ()


class TestSpanRecordSerialization:
    def test_worker_omitted_when_unset(self):
        record = SpanRecord(
            span_id=1, parent_id=None, name="n", stage=None,
            start=0.0, duration=0.0,
        )
        assert "worker" not in record.to_dict()
