"""TraceReport tests: schema stability, stage accounting, renderings."""

import json

from repro.observability import (
    NULL_TRACER,
    STAGES,
    TRACE_REPORT_SCHEMA,
    TraceReport,
    Tracer,
)

TOP_LEVEL_KEYS = {
    "schema",
    "enabled",
    "stages",
    "counters",
    "gauges",
    "caches",
    "engines",
    "parallel",
    "rejects",
    "spans",
    "dropped_spans",
}


class TestSchemaStability:
    def test_disabled_tracer_still_keys_all_ten_stages(self):
        report = TraceReport.build(NULL_TRACER)
        data = report.to_dict()
        assert set(data) == TOP_LEVEL_KEYS
        assert data["schema"] == TRACE_REPORT_SCHEMA
        assert data["enabled"] is False
        assert tuple(data["stages"]) == STAGES
        for bucket in data["stages"].values():
            assert bucket == {"spans": 0, "seconds": 0.0}

    def test_enabled_tracer_keeps_the_same_shape(self):
        tracer = Tracer()
        with tracer.span("plan.decompose", stage="plan"):
            pass
        tracer.add("c", 2)
        tracer.gauge("g", 9)
        data = TraceReport.build(tracer).to_dict()
        assert set(data) == TOP_LEVEL_KEYS
        assert tuple(data["stages"]) == STAGES
        assert data["stages"]["plan"]["spans"] == 1
        assert data["counters"] == {"c": 2}
        assert data["gauges"] == {"g": 9}

    def test_json_round_trip(self):
        tracer = Tracer()
        with tracer.span("compile.build", stage="compile"):
            pass
        report = TraceReport.build(tracer)
        assert json.loads(report.to_json()) == json.loads(
            json.dumps(report.to_dict(), sort_keys=True)
        )

    def test_write_emits_parseable_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        TraceReport.build(NULL_TRACER).write(str(path))
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["schema"] == TRACE_REPORT_SCHEMA


class TestStageAccounting:
    def test_nested_same_stage_span_counts_but_does_not_double_bill(self):
        tracer = Tracer()
        with tracer.span("execute.outer", stage="execute"):
            with tracer.span("execute.inner", stage="execute"):
                pass
        report = TraceReport.build(tracer)
        inner, outer = report.spans
        bucket = report.stages["execute"]
        assert bucket["spans"] == 2
        # seconds come from the stage-root span alone
        assert bucket["seconds"] == outer.duration
        assert bucket["seconds"] < outer.duration + inner.duration

    def test_different_stage_children_bill_their_own_stage(self):
        tracer = Tracer()
        with tracer.span("plan.decompose", stage="plan"):
            with tracer.span("compile.build", stage="compile"):
                pass
        report = TraceReport.build(tracer)
        assert report.stages["plan"]["spans"] == 1
        assert report.stages["compile"]["spans"] == 1
        assert report.stages["compile"]["seconds"] > 0.0

    def test_untagged_spans_do_not_touch_stage_buckets(self):
        tracer = Tracer()
        with tracer.span("executor.run"):
            pass
        report = TraceReport.build(tracer)
        assert all(
            bucket == {"spans": 0, "seconds": 0.0}
            for bucket in report.stages.values()
        )
        assert len(report.spans) == 1


class TestRenderings:
    def _report(self):
        tracer = Tracer()
        with tracer.span("executor.run", workers=2):
            with tracer.span("shard.plan", stage="shard", shards=3):
                pass
            with tracer.span("execute.shard", stage="execute"):
                pass
        tracer.add("executor.restarts", 1)
        tracer.gauge("naive.candidate_space", 64)
        return TraceReport.build(tracer)

    def test_describe_lists_every_stage_and_metric(self):
        text = self._report().describe()
        for stage in STAGES:
            assert stage in text
        assert "counter executor.restarts = 1" in text
        assert "gauge   naive.candidate_space = 64" in text

    def test_tree_indents_children_under_parents(self):
        lines = self._report().tree().splitlines()
        assert lines[0].startswith("executor.run")
        assert lines[1].startswith("  shard.plan [shard]")
        assert lines[2].startswith("  execute.shard [execute]")

    def test_tree_caps_rendered_spans(self):
        tracer = Tracer()
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        text = TraceReport.build(tracer).tree(max_spans=4)
        assert "6 more span(s) not shown" in text

    def test_tree_without_spans_explains_itself(self):
        assert "tracing disabled" in TraceReport.build(NULL_TRACER).tree()

    def test_summary_reports_span_totals_when_enabled(self):
        text = self._report().summary()
        assert "trace spans=3 staged=2 dropped=0" in text

    def test_summary_is_silent_about_spans_when_disabled(self):
        assert "trace spans" not in TraceReport.build(NULL_TRACER).summary()
