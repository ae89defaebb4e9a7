"""Picklable shard tasks — the work descriptors shipped to workers.

Every task is a frozen dataclass over the library's immutable value
objects (formulae, databases, machines), so it crosses the process
boundary by ordinary pickling; the worker entry point
:func:`execute_task` is a module-level function for the same reason.
Two task kinds cover the parallel surface:

* :class:`NaiveShardTask` — a contiguous range of the naive engine's
  head-tuple candidate space ``domain^k``, decoded in the worker by
  mixed-radix indexing and filtered through the reference semantics;
* :class:`GenerateShardTask` — a batch of the generator runs of
  Definition 3.1 (one Lemma 3.1 specialization of one machine per
  ``fixed`` binding), the misses that
  ``QueryEngine.generated`` ships to a pool.

Generate results are ``(global_index, answers)`` pairs, so the parent
can merge shard outputs in whatever order they arrive.

Databases ride along by value, but their storage backends control
their own pickling: an artifact-backed
:class:`~repro.storage.NGramIndexStorage` reduces to *open this
artifact path read-only*, so every worker mmaps the one on-disk index
(sharing OS page cache) instead of receiving a serialized tuple set —
the parent builds once, the fleet loads instantly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.errors import ParallelExecutionError
from repro.parallel.sharding import decode_candidate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import Database
    from repro.core.syntax import Formula, Var
    from repro.fsa.machine import FSA

#: One generator binding: its bound tapes as sorted ``(tape, value)``
#: pairs (hashable, picklable, the ``generate`` cache's key part).
FixedItems = tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class NaiveShardTask:
    """Reference-semantics evaluation of candidate range ``shard``.

    The embedded ``db`` pickles through its storage backends — an
    artifact-backed index storage ships as a path and is re-opened
    (mmap, read-only) in the worker rather than serialized row by row.
    """

    shard: range
    formula: "Formula"
    head: "tuple[Var, ...]"
    db: "Database"
    domain: tuple[str, ...]

    def run(self) -> frozenset[tuple[str, ...]]:
        """The satisfying head tuples in this shard's candidate range."""
        from repro.core.semantics import satisfies

        width = len(self.head)
        answers = set()
        for index in self.shard:
            values = decode_candidate(self.domain, width, index)
            env = dict(zip(self.head, values))
            if satisfies(self.formula, env, self.db, self.domain):
                answers.add(values)
        return frozenset(answers)


@dataclass(frozen=True)
class GenerateShardTask:
    """Generator-machine runs for a slice of ``fixed`` bindings.

    ``fixed_batch[i]`` corresponds to global position ``shard[i]`` of
    the full binding list; results come back as ``(position,
    answers)`` pairs.
    """

    shard: range
    fsa: "FSA"
    max_length: int
    fixed_batch: tuple[FixedItems, ...]

    def __post_init__(self) -> None:
        if len(self.fixed_batch) != len(self.shard):
            raise ParallelExecutionError(
                f"generate shard carries {len(self.fixed_batch)} bindings "
                f"for a size-{len(self.shard)} range"
            )

    def run(self) -> tuple[tuple[int, frozenset[tuple[str, ...]]], ...]:
        """``(global position, answers)`` pairs for the binding batch."""
        from repro.fsa.generate import accepted_tuples_batch

        produced = accepted_tuples_batch(
            self.fsa, self.max_length, self.fixed_batch
        )
        return tuple(zip(self.shard, produced))


#: The picklable trace payload a traced worker ships back with its
#: result: ``(pid, records, counters, gauges)`` — the worker's process
#: id followed by the ``Tracer.export()`` triple — or ``None`` when
#: the run was untraced.
TraceState = "tuple[int, tuple, dict, dict] | None"


def execute_task(task: Any, traced: bool = False) -> tuple[Any, float, Any]:
    """The worker entry point: run one task, timing (and tracing) it.

    Args:
        task: Any shard task from this module (``task.run()`` does the
            work, ``task.shard`` locates it in the plan).
        traced: When true, the run happens under a private worker-side
            :class:`~repro.observability.Tracer` whose exported state
            rides back with the result for the parent to
            ``absorb()`` — worker processes share no tracer with the
            parent, so the spans must travel by value.

    Returns:
        ``(result, seconds, trace_state)`` — the task's raw result,
        its compute time for :class:`~repro.parallel.executor
        .ExecutionReport` aggregation, and the worker's
        ``(pid, records, counters, gauges)`` trace payload (``None``
        when ``traced`` is false).
    """
    started = perf_counter()
    if not traced:
        return task.run(), perf_counter() - started, None
    from repro.observability import Tracer, activate

    tracer = Tracer()
    with activate(tracer):
        with tracer.span(
            "execute.shard",
            stage="execute",
            kind=type(task).__name__,
            start=task.shard.start,
            stop=task.shard.stop,
        ):
            result = task.run()
    return result, perf_counter() - started, (os.getpid(), *tracer.export())
