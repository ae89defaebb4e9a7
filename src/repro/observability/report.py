"""The :class:`TraceReport`: one schema-stable view of a traced run.

Ad-hoc per-layer stat dicts (engine caches, parallel execution
reports) used to be the only instrumentation surface; the trace report
unifies them with the span/counter data of a
:class:`~repro.observability.tracer.Tracer` into a single JSON-stable
document.  The schema always contains a ``stages`` section keyed by
*exactly* the ten canonical pipeline stages
(:data:`~repro.observability.tracer.STAGES`), whether or not the run
exercised them, so downstream tooling can index stages
unconditionally.

Build one with :meth:`TraceReport.build` (or, more commonly,
``QueryEngine.trace_report()``), then render it:

* :meth:`TraceReport.to_dict` / :meth:`to_json` / :meth:`write` — the
  machine-readable document behind the CLI's ``--metrics-out``;
* :meth:`TraceReport.describe` — the per-stage profile table behind
  ``--profile``;
* :meth:`TraceReport.tree` — the indented span tree behind ``--trace``;
* :meth:`TraceReport.summary` — the cache/engine/parallel lines
  printed by ``--stats``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.observability.tracer import STAGES, NullTracer, SpanRecord, Tracer

#: Version tag embedded in every serialized report; bump on any
#: backwards-incompatible layout change.  ``/2`` extends ``/1``
#: compatibly — two stages (``normalize``, ``optimize``) and a
#: ``rejects`` section were added; ``/3`` extends ``/2`` with the
#: ``delta`` stage (the update path) and per-cache ``invalidated``
#: counts (stamped entries replaced in place).  Every earlier key is
#: unchanged.
TRACE_REPORT_SCHEMA = "repro.trace-report/3"


def _empty_stages() -> dict[str, dict[str, float | int]]:
    return {stage: {"spans": 0, "seconds": 0.0} for stage in STAGES}


@dataclass
class TraceReport:
    """Aggregated tracing + engine instrumentation for one session.

    Attributes:
        enabled: Whether a real tracer produced the span data (a
            disabled session still reports caches and counters).
        stages: Per-stage span counts and seconds, keyed by exactly
            the ten canonical stages.  Seconds sum *stage-root*
            spans only: a span nested inside a same-stage parent is
            already covered by the parent's duration.
        counters: Accumulated typed counters (worker counters folded
            in), e.g. ``simulate.configurations``, ``executor.restarts``.
        gauges: Last-value gauges, e.g. ``naive.candidate_space``.
        caches: Per-cache hit/miss/seconds snapshots from the session.
        engines: Per-engine evaluation counts and seconds.
        parallel: Session-wide parallel execution accounting.
        rejects: Planner rejection reasons with fallback counts.
        spans: Retained span records (completion order).
        dropped_spans: Spans beyond the tracer's retention cap.
    """

    enabled: bool = False
    stages: dict[str, dict[str, float | int]] = field(
        default_factory=_empty_stages
    )
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    caches: dict[str, dict[str, float | int]] = field(default_factory=dict)
    engines: dict[str, dict[str, float | int]] = field(default_factory=dict)
    parallel: dict[str, float | int] = field(default_factory=dict)
    rejects: dict[str, int] = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    dropped_spans: int = 0

    @classmethod
    def build(
        cls, tracer: "Tracer | NullTracer", stats: Any = None
    ) -> "TraceReport":
        """Assemble a report from a tracer and (optionally) engine stats.

        Args:
            tracer: The session's tracer; :data:`NULL_TRACER` yields a
                report with empty span data but ``stages`` still fully
                keyed.
            stats: An :class:`~repro.engine.caches.EngineStats` (or any
                object with a compatible ``snapshot()``) whose cache /
                engine / parallel sections are embedded.

        Returns:
            The populated :class:`TraceReport`.
        """
        report = cls(enabled=bool(getattr(tracer, "enabled", False)))
        records = tracer.records()
        stage_of = {record.span_id: record.stage for record in records}
        for record in records:
            report.spans.append(record)
            if record.stage in report.stages:
                bucket = report.stages[record.stage]
                bucket["spans"] += 1
                # A span nested inside a same-stage parent is part of
                # the parent's time; counting both would double-bill
                # the stage, so only stage-root spans contribute.
                if stage_of.get(record.parent_id) != record.stage:
                    bucket["seconds"] += record.duration
        report.counters = dict(getattr(tracer, "counters", {}) or {})
        report.gauges = dict(getattr(tracer, "gauges", {}) or {})
        report.dropped_spans = int(getattr(tracer, "dropped_spans", 0) or 0)
        if stats is not None:
            snapshot = stats.snapshot()
            report.caches = dict(snapshot.get("caches", {}))
            evaluations = snapshot.get("evaluations", {})
            seconds = snapshot.get("engine_seconds", {})
            report.engines = {
                name: {
                    "evaluations": evaluations.get(name, 0),
                    "seconds": seconds.get(name, 0.0),
                }
                for name in sorted(set(evaluations) | set(seconds))
            }
            report.parallel = dict(snapshot.get("parallel", {}))
            report.rejects = dict(snapshot.get("rejects", {}))
        return report

    # -- machine-readable renderings ------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The full schema-stable document (see :data:`TRACE_REPORT_SCHEMA`).

        Returns:
            A JSON-serializable dict whose top-level keys — ``schema``,
            ``enabled``, ``stages``, ``counters``, ``gauges``,
            ``caches``, ``engines``, ``parallel``, ``rejects``,
            ``spans``, ``dropped_spans`` — are always present, and
            whose ``stages`` section is keyed by exactly the ten
            canonical pipeline stages.
        """
        return {
            "schema": TRACE_REPORT_SCHEMA,
            "enabled": self.enabled,
            "stages": {
                stage: dict(self.stages.get(stage, {"spans": 0, "seconds": 0.0}))
                for stage in STAGES
            },
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "caches": {name: dict(data) for name, data in self.caches.items()},
            "engines": {name: dict(data) for name, data in self.engines.items()},
            "parallel": dict(self.parallel),
            "rejects": dict(self.rejects),
            "spans": [record.to_dict() for record in self.spans],
            "dropped_spans": self.dropped_spans,
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize :meth:`to_dict` as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the JSON document to ``path`` (the ``--metrics-out`` file)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    # -- human-readable renderings --------------------------------------

    def describe(self) -> str:
        """The per-stage profile table printed by the CLI's ``--profile``."""
        lines = ["stage        spans    seconds"]
        for stage in STAGES:
            bucket = self.stages[stage]
            lines.append(
                f"{stage:<12} {bucket['spans']:<8} {bucket['seconds']:.4f}"
            )
        if self.dropped_spans:
            lines.append(f"(+{self.dropped_spans} span(s) beyond retention cap)")
        for name in sorted(self.counters):
            lines.append(f"counter {name} = {self.counters[name]}")
        for name in sorted(self.gauges):
            lines.append(f"gauge   {name} = {self.gauges[name]}")
        return "\n".join(lines)

    def tree(self, max_spans: int = 200) -> str:
        """The indented span tree printed by the CLI's ``--trace``.

        Args:
            max_spans: Rendering cap; deeper traces are elided with a
                trailing note rather than flooding the terminal.

        Returns:
            One line per span — indentation shows nesting, each line
            giving the name, stage, duration and attributes.
        """
        children: dict[int | None, list[SpanRecord]] = {}
        for record in self.spans:
            children.setdefault(record.parent_id, []).append(record)
        for siblings in children.values():
            siblings.sort(key=lambda record: (record.worker or 0, record.start))
        lines: list[str] = []

        def render(record: SpanRecord, depth: int) -> None:
            if len(lines) >= max_spans:
                return
            stage = f" [{record.stage}]" if record.stage else ""
            worker = f" worker={record.worker}" if record.worker else ""
            attributes = dict(record.attributes)
            extras = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(attributes.items()))
                if attributes
                else ""
            )
            lines.append(
                f"{'  ' * depth}{record.name}{stage} "
                f"{record.duration * 1e3:.2f}ms{worker}{extras}"
            )
            for child in children.get(record.span_id, ()):
                render(child, depth + 1)

        for root in children.get(None, ()):
            render(root, 0)
        total = len(self.spans)
        if total > max_spans:
            lines.append(f"... ({total - max_spans} more span(s) not shown)")
        if not lines:
            lines.append("(no spans recorded — tracing disabled?)")
        return "\n".join(lines)

    def summary(self) -> str:
        """The ``--stats`` lines: caches, engines, rejects, parallel, kernel.

        One line per cache (with ``invalidated=N`` once an entry was
        replaced under a new stamp), per engine and per rejection
        reason, then the parallel totals and kernel counters when
        present, and a trailing span line when tracing was enabled.
        """
        lines = []
        for name in sorted(self.caches):
            data = self.caches[name]
            hits = data.get("hits", 0)
            misses = data.get("misses", 0)
            line = (
                f"cache {name:<10} hits={hits:<6} "
                f"misses={misses:<6} hit_rate={data.get('hit_rate', 0.0):.0%} "
                f"miss_seconds={data.get('seconds', 0.0):.4f}"
            )
            if data.get("invalidated"):
                line += f" invalidated={data['invalidated']}"
            lines.append(line)
        for name in sorted(self.engines):
            data = self.engines[name]
            lines.append(
                f"engine {name:<9} runs={data.get('evaluations', 0):<6} "
                f"seconds={data.get('seconds', 0.0):.4f}"
            )
        for reason in sorted(self.rejects):
            lines.append(
                f"reject {reason:<20} count={self.rejects[reason]}"
            )
        if self.parallel.get("runs"):
            totals = self.parallel
            lines.append(
                "parallel runs={runs} pooled={pooled} "
                "shards={done}/{planned} restarts={restarts} "
                "cache_hits={cache_hits} wall={wall:.4f}s cpu={cpu:.4f}s".format(
                    runs=totals.get("runs", 0),
                    pooled=totals.get("pooled_runs", 0),
                    done=totals.get("shards_completed", 0),
                    planned=totals.get("shards_planned", 0),
                    restarts=totals.get("restarts", 0),
                    cache_hits=totals.get("cache_hits", 0),
                    wall=totals.get("wall_seconds", 0.0),
                    cpu=totals.get("task_seconds", 0.0),
                )
            )
        counters = self.counters
        if any(
            name in counters
            for name in (
                "kernel.compile",
                "kernel.hits",
                "simulate.kernel_configurations",
            )
        ):
            lines.append(
                "kernel compiles={compiles} hits={hits} "
                "configurations={configurations}".format(
                    compiles=int(counters.get("kernel.compile", 0)),
                    hits=int(counters.get("kernel.hits", 0)),
                    configurations=int(
                        counters.get("simulate.kernel_configurations", 0)
                    ),
                )
            )
        if self.enabled:
            traced = sum(bucket["spans"] for bucket in self.stages.values())
            lines.append(
                f"trace spans={len(self.spans)} staged={traced} "
                f"dropped={self.dropped_spans}"
            )
        return "\n".join(lines)
