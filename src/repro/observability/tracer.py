"""Hierarchical spans, counters and gauges — the tracing core.

A :class:`Tracer` records a tree of timed :class:`SpanRecord` values
(monotonic-clock durations via :func:`time.perf_counter`), typed
counters (monotonically accumulated integers/floats) and gauges
(last-value-wins measurements).  Instrumentation has one channel:
every site writes to the ambient :func:`current_tracer` contextvar,
which defaults to the no-op :data:`NULL_TRACER` so untraced runs pay
(almost) nothing.  Only the code that owns a tracer activates it: a
traced :class:`~repro.engine.session.QueryEngine` around its entry
points, the query daemon around each request, and the worker entry
point around each shard.

Every span carries an optional ``stage`` tag naming the pipeline stage
it belongs to; the canonical stages, in pipeline order, are
:data:`STAGES` — ``compile → specialize → normalize → translate →
optimize → plan → shard → execute → fold`` plus ``delta``, the
update path (:meth:`repro.engine.QueryEngine.apply_delta`) that runs
between pipelines.
:class:`~repro.observability.report.TraceReport` aggregates per-stage
span counts and seconds over exactly this set, so the report schema is
stable whether or not a given run exercised a stage.

Worker processes cannot write into the parent's tracer.  Instead the
worker entry point builds a private :class:`Tracer`, runs the shard
under it, and ships ``(records, counters, gauges)`` back with the
result (:meth:`Tracer.export`); the parent folds them in with
:meth:`Tracer.absorb`, re-parenting the worker's root spans under the
parent's current span and tagging each record with the worker's pid.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any

#: The canonical pipeline stages, in pipeline order.  Every
#: :class:`TraceReport` aggregates spans over exactly these keys.
STAGES: tuple[str, ...] = (
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

#: Default cap on retained span records per tracer; spans beyond the
#: cap are counted in ``dropped_spans`` instead of being stored.
DEFAULT_MAX_SPANS = 10_000

Attributes = tuple[tuple[str, Any], ...]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named, timed slice of the pipeline.

    ``start`` is the offset in seconds from the owning tracer's epoch
    (its construction time); for spans absorbed from a worker process
    the offset is relative to the *worker's* epoch and ``worker``
    carries that process's pid.  ``attributes`` is a tuple of
    ``(key, value)`` pairs so records stay hashable and picklable.
    """

    span_id: int
    parent_id: int | None
    name: str
    stage: str | None
    start: float
    duration: float
    attributes: Attributes = ()
    worker: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict view, suitable for JSON serialization.

        Returns:
            A dict with the record's fields; ``attributes`` becomes a
            mapping and ``worker`` is included only when set.
        """
        data: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "stage": self.stage,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }
        if self.worker is not None:
            data["worker"] = self.worker
        return data


class Span:
    """An open span: a context manager handle produced by :meth:`Tracer.span`.

    Entering starts the clock and pushes the span on the tracer's
    stack (so nested spans record it as their parent); exiting pops it
    and appends the finished :class:`SpanRecord`.  A span that exits
    through an exception records an ``error`` attribute with the
    exception type name before re-raising.
    """

    __slots__ = ("_tracer", "name", "stage", "_attributes", "_span_id", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, stage: str | None, attributes: dict
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.stage = stage
        self._attributes = attributes
        self._span_id = 0
        self._start = 0.0

    def set(self, **attributes: Any) -> "Span":
        """Attach or overwrite attributes on the open span.

        Args:
            **attributes: Key/value pairs recorded with the span.

        Returns:
            The span itself, for chaining.
        """
        self._attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self._span_id = tracer._new_span_id()
        tracer._stack.append(self._span_id)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = perf_counter() - self._start
        tracer = self._tracer
        stack = tracer._stack
        stack.pop()
        if exc_type is not None:
            self._attributes["error"] = exc_type.__name__
        tracer._finish(
            SpanRecord(
                span_id=self._span_id,
                parent_id=stack[-1] if stack else None,
                name=self.name,
                stage=self.stage,
                start=self._start - tracer._epoch,
                duration=duration,
                attributes=tuple(sorted(self._attributes.items())),
            )
        )
        return False


class _NullSpan:
    """The do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        """Ignore the attributes; return self for chaining."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a near-free no-op.

    Instrumented code never branches on "is tracing on?" — it calls
    the same methods on whatever tracer is active, and this class makes
    the disabled path cost one attribute lookup and one call per
    instrumentation point (no allocation, no clock reads).
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, stage: str | None = None, **attributes: Any):
        """Return the shared no-op span context manager."""
        return _NULL_SPAN

    def add(self, name: str, value: float = 1) -> None:
        """Discard a counter increment."""

    def gauge(self, name: str, value: float) -> None:
        """Discard a gauge observation."""

    def absorb(
        self,
        records: Iterable[SpanRecord],
        counters: Mapping[str, float] = (),
        gauges: Mapping[str, float] = (),
        worker: int | None = None,
    ) -> None:
        """Discard a worker's exported trace state."""

    def export(self) -> tuple[tuple, dict, dict]:
        """Return an empty export triple ``((), {}, {})``."""
        return ((), {}, {})

    def records(self) -> tuple[SpanRecord, ...]:
        """Return no records."""
        return ()


#: The process-wide disabled tracer; the default ambient tracer.
NULL_TRACER = NullTracer()


class Tracer:
    """Records hierarchical spans, counters and gauges for one session.

    Args:
        max_spans: Retained-record cap; further spans still update
            counters but are dropped from the in-memory list (the drop
            count is reported as ``dropped_spans``).

    The tracer is deliberately single-threaded per session, matching
    the engine's execution model; worker processes use their own
    tracers and fold back through :meth:`absorb`.
    """

    __slots__ = (
        "counters",
        "gauges",
        "max_spans",
        "dropped_spans",
        "_epoch",
        "_records",
        "_stack",
        "_last_id",
    )

    enabled = True

    def __init__(self, *, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._epoch = perf_counter()
        self._records: list[SpanRecord] = []
        self._stack: list[int] = []
        self._last_id = 0

    # -- span lifecycle -------------------------------------------------

    def _new_span_id(self) -> int:
        self._last_id += 1
        return self._last_id

    def span(self, name: str, stage: str | None = None, **attributes: Any) -> Span:
        """Open a span; use as a context manager.

        Args:
            name: Dotted span name, ``<module-area>.<operation>``.
            stage: Optional canonical pipeline stage from
                :data:`STAGES`; stage-tagged spans feed the per-stage
                aggregation of the trace report.
            **attributes: Initial attributes recorded with the span.

        Returns:
            An un-entered :class:`Span`; timing starts at ``__enter__``.
        """
        return Span(self, name, stage, dict(attributes))

    def _finish(self, record: SpanRecord) -> None:
        if len(self._records) < self.max_spans:
            self._records.append(record)
        else:
            self.dropped_spans += 1

    # -- counters and gauges --------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto the named counter.

        Args:
            name: Dotted counter name, e.g. ``"simulate.configurations"``.
            value: Increment (defaults to 1); counters only grow.
        """
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the latest observation of the named gauge.

        Args:
            name: Dotted gauge name, e.g. ``"naive.candidate_space"``.
            value: The observed value; the last write wins.
        """
        self.gauges[name] = value

    # -- worker fold-back ------------------------------------------------

    def export(self) -> tuple[tuple[SpanRecord, ...], dict, dict]:
        """The picklable trace state shipped from a worker to the parent.

        Returns:
            ``(records, counters, gauges)`` — plain tuples/dicts that
            :meth:`absorb` on the parent's tracer accepts verbatim.
        """
        return tuple(self._records), dict(self.counters), dict(self.gauges)

    def absorb(
        self,
        records: Iterable[SpanRecord],
        counters: Mapping[str, float] = (),
        gauges: Mapping[str, float] = (),
        worker: int | None = None,
    ) -> None:
        """Fold a worker's exported trace state into this tracer.

        Span ids are re-issued to avoid collisions, the worker's root
        spans are re-parented under this tracer's current span, and
        every record is tagged with ``worker`` (the worker pid).  Span
        ``start`` offsets stay relative to the worker's own epoch.

        Args:
            records: :class:`SpanRecord` values from :meth:`export`.
            counters: Worker counters, accumulated via :meth:`add`.
            gauges: Worker gauges, recorded via :meth:`gauge`.
            worker: The worker's pid, stamped on absorbed records.
        """
        records = tuple(records)
        parent = self._stack[-1] if self._stack else None
        id_map = {record.span_id: self._new_span_id() for record in records}
        for record in records:
            remapped_parent = (
                id_map.get(record.parent_id, parent)
                if record.parent_id is not None
                else parent
            )
            self._finish(
                replace(
                    record,
                    span_id=id_map[record.span_id],
                    parent_id=remapped_parent,
                    worker=record.worker if record.worker is not None else worker,
                )
            )
        for name, value in dict(counters).items():
            self.add(name, value)
        for name, value in dict(gauges).items():
            self.gauge(name, value)

    # -- access ----------------------------------------------------------

    def records(self) -> tuple[SpanRecord, ...]:
        """All retained span records, in completion (exit) order."""
        return tuple(self._records)


# -- the ambient tracer ------------------------------------------------

_ACTIVE: ContextVar["Tracer | NullTracer"] = ContextVar(
    "repro_active_tracer", default=NULL_TRACER
)


def current_tracer() -> "Tracer | NullTracer":
    """The tracer instrumentation should write to right now.

    Every instrumentation site calls this; it defaults to
    :data:`NULL_TRACER` so untraced code paths stay near-free.

    Returns:
        The active :class:`Tracer`, or :data:`NULL_TRACER`.
    """
    return _ACTIVE.get()


@contextmanager
def activate(tracer: "Tracer | NullTracer"):
    """Make ``tracer`` the ambient tracer for the enclosed block.

    Args:
        tracer: The tracer :func:`current_tracer` should return inside
            the ``with`` block.

    Yields:
        The activated tracer.
    """
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
