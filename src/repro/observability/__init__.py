"""Unified observability: hierarchical tracing, metrics, and reports.

This package is the instrumentation substrate for the whole pipeline —
dependency-free (stdlib only), negligible when disabled, and stable in
schema so perf work can report against it release after release.

Two layers:

* :mod:`repro.observability.tracer` — :class:`Tracer` (spans,
  counters, gauges), the ambient :func:`current_tracer` /
  :func:`activate` contextvar plumbing, and the canonical pipeline
  :data:`STAGES` (``compile → specialize → translate → plan → shard →
  execute → fold``);
* :mod:`repro.observability.report` — :class:`TraceReport`, the
  schema-stable JSON document unifying span data with the engine's
  cache/parallel accounting (the CLI's ``--trace`` / ``--profile`` /
  ``--metrics-out`` surface).

See ``docs/observability.md`` for naming conventions and walkthroughs,
and ``docs/architecture.md`` for where each stage lives in the
codebase.
"""

from repro.observability.report import TRACE_REPORT_SCHEMA, TraceReport
from repro.observability.tracer import (
    DEFAULT_MAX_SPANS,
    NULL_TRACER,
    STAGES,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    activate,
    current_tracer,
)

__all__ = [
    "DEFAULT_MAX_SPANS",
    "NULL_TRACER",
    "NullTracer",
    "STAGES",
    "Span",
    "SpanRecord",
    "TRACE_REPORT_SCHEMA",
    "TraceReport",
    "Tracer",
    "activate",
    "current_tracer",
]
