"""Per-layer timing from outside the program.

The traced run installs wrappers around each layer's public functions
and methods (:data:`TARGETS`).  Every wrapper records a span; a span's
*self time* is its duration minus the time of the wrapped calls it made
(its children), so a compile triggered inside planning is billed to
``compile`` and not twice.  Generator methods (storage scans) are timed
per ``next`` call, so the consumer's work between rows is not billed to
the storage layer.

The wrappers are installed only around traced operations and removed
afterwards, so untraced operations run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import threading
from dataclasses import dataclass
from time import perf_counter

#: ``(layer, module, attribute path, kind)``.  ``kind`` is ``call`` for
#: plain functions and methods, ``iter`` for methods returning an
#: iterator of rows, ``classmethod`` for alternate constructors.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("compile", "repro.engine.session", "QueryEngine.compile", "call"),
    ("specialize", "repro.engine.session", "QueryEngine.specialized", "call"),
    ("limit", "repro.engine.session", "QueryEngine.limit_report", "call"),
    ("limit", "repro.engine.session", "QueryEngine.certified_length", "call"),
    ("plan", "repro.engine.session", "QueryEngine.query_plan", "call"),
    ("invalidate", "repro.engine.session",
     "QueryEngine.invalidate_relations", "call"),
    ("generate", "repro.fsa.generate", "accepted_tuples", "call"),
    ("generate", "repro.fsa.generate", "accepted_tuples_batch", "call"),
    ("kernel", "repro.fsa.kernel", "CompiledKernel.accepts", "call"),
    ("kernel", "repro.fsa.kernel", "CompiledKernel.accepts_batch", "call"),
    ("kernel", "repro.fsa.determinize", "DeterministicKernel.accepts", "call"),
    ("kernel", "repro.fsa.determinize",
     "DeterministicKernel.accepts_batch", "call"),
    ("slp_kernel", "repro.slp.kernel", "SLPKernel.accepts", "call"),
    ("slp_kernel", "repro.slp.kernel", "SLPKernel.accepts_batch", "call"),
    ("probe", "repro.storage.ngram", "NGramIndexStorage.candidates", "call"),
    ("probe", "repro.storage.slp", "SLPStorage.candidates", "call"),
    ("decode", "repro.storage.ngram", "NGramIndexStorage.rows_for", "iter"),
    ("decode", "repro.storage.ngram", "NGramIndexStorage.scan", "iter"),
    ("decode", "repro.storage.slp", "SLPStorage.rows_for", "iter"),
    ("decode", "repro.storage.slp", "SLPStorage.scan", "iter"),
    ("decode", "repro.storage.base", "InMemoryStorage.scan", "iter"),
    ("apply", "repro.core.database", "Database.apply", "call"),
    ("build", "repro.storage.ngram", "NGramIndexStorage.build", "classmethod"),
    ("build", "repro.storage.slp", "SLPStorage.build", "classmethod"),
    ("build", "repro.storage.slp", "SLPStorage.from_cells", "classmethod"),
    ("maintain", "repro.delta.materialize", "MaterializedStore.maintain",
     "call"),
)

#: Every layer name :data:`TARGETS` uses, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


@dataclass
class _ThreadLedger:
    """One thread's open spans and totals (merged on read)."""

    stack: list
    seconds: dict


class LayerClock:
    """Self-time per layer, plus the row counts the storage wrappers see.

    Safe under threads: each thread keeps its own span stack and
    totals, merged by :meth:`seconds`.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._ledgers: list[_ThreadLedger] = []
        self._lock = threading.Lock()
        #: Rows yielded by ``rows_for`` (the prefiltered decode path).
        self.candidate_rows = 0
        #: Characters yielded out of SLP storage scans and decodes.
        self.slp_expanded_chars = 0

    def _ledger(self) -> _ThreadLedger:
        ledger = getattr(self._local, "ledger", None)
        if ledger is None:
            ledger = _ThreadLedger([], {})
            self._local.ledger = ledger
            with self._lock:
                self._ledgers.append(ledger)
        return ledger

    def enter(self) -> None:
        """Open a span on the calling thread."""
        self._ledger().stack.append(0.0)

    def leave(self, layer: str, elapsed: float) -> None:
        """Close the innermost span: bill its self time to ``layer``."""
        ledger = self._ledger()
        children = ledger.stack.pop()
        ledger.seconds[layer] = (
            ledger.seconds.get(layer, 0.0) + elapsed - children
        )
        if ledger.stack:
            ledger.stack[-1] += elapsed

    def reset(self) -> None:
        """Forget everything recorded so far (call between operations)."""
        with self._lock:
            for ledger in self._ledgers:
                ledger.seconds.clear()
        self.candidate_rows = 0
        self.slp_expanded_chars = 0

    def seconds(self) -> dict[str, float]:
        """Self seconds per layer, summed over threads."""
        total: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        with self._lock:
            for ledger in self._ledgers:
                for layer, value in ledger.seconds.items():
                    total[layer] = total.get(layer, 0.0) + value
        return total

    # -- wrappers --------------------------------------------------------

    def timed(self, layer: str, fn):
        """Wrap a callable so each call is one span of ``layer``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter()
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(layer, perf_counter() - started)

        return wrapper

    def timed_rows(self, layer: str, fn, *, slp: bool, candidates: bool):
        """Wrap a row iterator so each ``next`` is one span of ``layer``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter()
            started = perf_counter()
            try:
                rows = iter(fn(*args, **kwargs))
            finally:
                self.leave(layer, perf_counter() - started)
            return self._drain(layer, rows, slp, candidates)

        return wrapper

    def _drain(self, layer, rows, slp: bool, candidates: bool):
        while True:
            self.enter()
            started = perf_counter()
            try:
                row = next(rows)
            except StopIteration:
                return
            finally:
                self.leave(layer, perf_counter() - started)
            if candidates:
                self.candidate_rows += 1
            if slp:
                self.slp_expanded_chars += sum(
                    len(cell) for cell in row if isinstance(cell, str)
                )
            yield row


def _resolve(module_name: str, path: str):
    """``(owner, name)`` of a target, or ``None`` if the program lacks it.

    A target the program no longer has is skipped, so its layer reads
    0 instead of the traced run failing.
    """
    try:
        owner = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
    except (ImportError, AttributeError):
        return None
    if name not in vars(owner):
        return None
    return owner, name


class Installed:
    """The wrappers of :data:`TARGETS` around ``clock``, until removed.

    Use as a context manager; the original attributes are restored on
    exit even when the traced operation raises.
    """

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        clock = self.clock
        for layer, module_name, path, kind in TARGETS:
            resolved = _resolve(module_name, path)
            if resolved is None:
                continue
            owner, name = resolved
            original = vars(owner)[name]
            if kind == "classmethod":
                wrapped = classmethod(clock.timed(layer, original.__func__))
            elif kind == "iter":
                wrapped = clock.timed_rows(
                    layer,
                    original,
                    slp=module_name == "repro.storage.slp",
                    candidates=name == "rows_for",
                )
            else:
                wrapped = clock.timed(layer, original)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapped)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


#: The ten pipeline stages of the program's own ``TraceReport``.
STAGES = (
    "compile", "specialize", "normalize", "translate", "optimize",
    "plan", "shard", "execute", "fold", "delta",
)

#: Layer-clock layer behind each per-operation time metric.
_TIME_METRICS = (
    ("compile.s", "compile"),
    ("specialize.s", "specialize"),
    ("limit.s", "limit"),
    ("plan.s", "plan"),
    ("generate.s", "generate"),
    ("kernel.s", "kernel"),
    ("slp.kernel_s", "slp_kernel"),
    ("storage.probe_s", "probe"),
    ("storage.decode_s", "decode"),
    ("storage.apply_s", "apply"),
    ("delta.invalidate_s", "invalidate"),
    ("delta.maintain_s", "maintain"),
)

#: Program counter behind each per-operation count metric.
_COUNT_METRICS = (
    ("compile.states", "compile.states_built"),
    ("plan.rejects", "plan.reject."),
    ("generate.states", "generate.search_states"),
    ("kernel.runs", "simulate.runs"),
    ("kernel.symbols", "simulate.scan_symbols"),
    ("slp.rules", "simulate.grammar_rules"),
    ("delta.invalidated", "cache.invalidate."),
)


def per_layer_metrics(
    *,
    ops: int,
    seconds: dict,
    counters,
    stages: dict,
    candidate_rows: int,
    slp_expanded_chars: int,
    answer_rows: int,
    cache: tuple[int, int, int],
    build_s: float,
    overhead_ratio: float,
    service: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    Times and counts are per traced operation, so they stay comparable
    when a change alters how many operations fit in a run.  Layers a
    workload does not reach read 0.

    Args:
        ops: Traced operations the totals cover (at least 1).
        seconds: Self seconds per layer (:meth:`LayerClock.seconds`).
        counters: ``counter_sum(prefix)`` over the program's counters.
        stages: ``TraceReport`` stage seconds summed over the ops.
        candidate_rows: Rows decoded through prefiltered ``rows_for``.
        slp_expanded_chars: Characters decoded out of SLP storage.
        answer_rows: Answer rows the traced operations returned.
        cache: ``(hits, lookups, entries)`` over the session caches.
        build_s: Seconds one setup spent building storages.
        overhead_ratio: Untraced over traced operations per second.
        service: ``(overhead_ms, lease_wait_ms, rejected)``.
    """
    per_op = 1.0 / max(ops, 1)
    metrics: dict = {}
    hits, lookups, entries = cache
    metrics["engine.cache_hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio"
    )
    metrics["engine.cache_entries"] = (entries, "count")
    for name, layer in _TIME_METRICS:
        metrics[name] = (seconds.get(layer, 0.0) * per_op, "s/op")
    for name, counter in _COUNT_METRICS:
        metrics[name] = (counters(counter) * per_op, "1/op")
    runs = counters("simulate.runs")
    metrics["kernel.runs_per_answer"] = (
        runs / answer_rows if answer_rows else 0.0, "ratio"
    )
    metrics["slp.expanded_chars"] = (slp_expanded_chars * per_op, "1/op")
    pruned = counters("index.pruned")
    metrics["storage.pruned_ratio"] = (
        pruned / (pruned + candidate_rows) if pruned + candidate_rows else 0.0,
        "ratio",
    )
    metrics["storage.build_s"] = (build_s, "s")
    semi = counters("delta.materialize.branch_semi_naive")
    recomputed = counters("delta.materialize.branch_recomputed")
    metrics["delta.semi_naive_ratio"] = (
        semi / (semi + recomputed) if semi + recomputed else 0.0, "ratio"
    )
    overhead_ms, lease_ms, rejected = service
    metrics["service.overhead_ms"] = (overhead_ms, "ms")
    metrics["service.lease_wait_ms"] = (lease_ms, "ms")
    metrics["service.rejected"] = (rejected, "count")
    for stage in STAGES:
        metrics[f"stage.{stage}.s"] = (stages.get(stage, 0.0) * per_op, "s/op")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
