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
can merge shard outputs without caring how the shards were split or
re-split.

Databases ride along by value, but their storage backends control
their own pickling: an artifact-backed
:class:`~repro.storage.NGramIndexStorage` reduces to *open this
artifact path read-only*, so every worker mmaps the one on-disk index
(sharing OS page cache) instead of receiving a serialized tuple set —
the parent builds once, the fleet loads instantly.

:class:`ChaosPolicy` is a first-class fault-injection hook: because
worker processes share no state with the tests, deterministic chaos is
keyed on the shard itself (its ``generation`` and plan ``index``) —
"every generation-0 shard fails" needs no cross-process coordination
and heals naturally once the executor re-splits.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.errors import ParallelExecutionError
from repro.parallel.sharding import Shard, decode_candidate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import Database
    from repro.core.syntax import Formula, Var
    from repro.fsa.machine import FSA

#: One generator binding: its bound tapes as sorted ``(tape, value)``
#: pairs (hashable, picklable, the ``generate`` cache's key part).
FixedItems = tuple[tuple[int, str], ...]


class ChaosFailure(RuntimeError):
    """The deliberate failure raised by a ``fail``-mode chaos policy."""


@dataclass(frozen=True)
class ChaosPolicy:
    """Deterministic fault injection for executor tests.

    ``fail_generations`` / ``hang_generations`` / ``crash_generations``
    select shard generations to sabotage; ``only_indices`` (when set)
    further restricts sabotage to shards whose plan ``index`` matches.
    A policy listing only generation 0 therefore fails every shard of
    the original plan and lets all re-split children succeed — the
    retry path in one picklable value.
    """

    fail_generations: tuple[int, ...] = ()
    hang_generations: tuple[int, ...] = ()
    crash_generations: tuple[int, ...] = ()
    only_indices: tuple[int, ...] | None = None
    hang_seconds: float = 2.0

    def _matches(self, shard: Shard) -> bool:
        return self.only_indices is None or shard.index in self.only_indices

    def apply(self, shard: Shard, in_worker: bool = True) -> None:
        """Sabotage the current worker according to the policy.

        In the executor's sequential fallback (``in_worker=False``) a
        ``crash`` downgrade to an ordinary failure — exiting would take
        the caller's process with it.
        """
        if not self._matches(shard):
            return
        if shard.generation in self.crash_generations:
            if in_worker:
                os._exit(13)  # a hard worker death, not an exception
            raise ChaosFailure(
                f"injected crash for shard {shard.index} "
                f"generation {shard.generation} (sequential mode)"
            )
        if shard.generation in self.hang_generations:
            time.sleep(self.hang_seconds)
        if shard.generation in self.fail_generations:
            raise ChaosFailure(
                f"injected failure for shard {shard.index} "
                f"generation {shard.generation}"
            )


@dataclass(frozen=True)
class NaiveShardTask:
    """Reference-semantics evaluation of candidate range ``shard``.

    The embedded ``db`` pickles through its storage backends — an
    artifact-backed index storage ships as a path and is re-opened
    (mmap, read-only) in the worker rather than serialized row by row.
    """

    shard: Shard
    formula: "Formula"
    head: "tuple[Var, ...]"
    db: "Database"
    domain: tuple[str, ...]

    def narrowed(self, shard: Shard) -> "NaiveShardTask":
        """A copy of this task restricted to the sub-range ``shard``."""
        return replace(self, shard=shard)

    def run(self) -> frozenset[tuple[str, ...]]:
        """The satisfying head tuples in this shard's candidate range."""
        from repro.core.semantics import satisfies

        width = len(self.head)
        answers = set()
        for index in range(self.shard.start, self.shard.stop):
            values = decode_candidate(self.domain, width, index)
            env = dict(zip(self.head, values))
            if satisfies(self.formula, env, self.db, self.domain):
                answers.add(values)
        return frozenset(answers)


@dataclass(frozen=True)
class GenerateShardTask:
    """Generator-machine runs for a slice of ``fixed`` bindings.

    ``fixed_batch[i]`` corresponds to global position ``shard.start + i``
    of the full binding list; results come back as ``(position,
    answers)`` pairs.
    """

    shard: Shard
    fsa: "FSA"
    max_length: int
    fixed_batch: tuple[FixedItems, ...]

    def __post_init__(self) -> None:
        if len(self.fixed_batch) != self.shard.size:
            raise ParallelExecutionError(
                f"generate shard carries {len(self.fixed_batch)} bindings "
                f"for a size-{self.shard.size} range"
            )

    def narrowed(self, shard: Shard) -> "GenerateShardTask":
        """A copy restricted to ``shard``, slicing the binding batch."""
        offset = shard.start - self.shard.start
        return replace(
            self,
            shard=shard,
            fixed_batch=self.fixed_batch[offset : offset + shard.size],
        )

    def run(self) -> tuple[tuple[int, frozenset[tuple[str, ...]]], ...]:
        """``(global position, answers)`` pairs for the binding batch."""
        from repro.fsa.generate import accepted_tuples_batch

        produced = accepted_tuples_batch(
            self.fsa, self.max_length, self.fixed_batch
        )
        return tuple(
            (self.shard.start + offset, answers)
            for offset, answers in enumerate(produced)
        )


#: The picklable trace payload a traced worker ships back with its
#: result: ``(pid, records, counters, gauges)`` — the worker's process
#: id followed by the ``Tracer.export()`` triple — or ``None`` when
#: the run was untraced.
TraceState = "tuple[int, tuple, dict, dict] | None"


def execute_task(
    task: Any,
    chaos: ChaosPolicy | None = None,
    in_worker: bool = True,
    traced: bool = False,
) -> tuple[Any, float, Any]:
    """The worker entry point: run one task, timing (and tracing) it.

    Args:
        task: Any shard task from this module (``task.run()`` does the
            work, ``task.shard`` locates it in the plan).
        chaos: Optional fault-injection policy, applied before the run.
        in_worker: Whether this call executes inside a pool worker;
            the sequential fallback passes ``False`` to soften chaos
            crashes into exceptions.
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
        if chaos is not None:
            chaos.apply(task.shard, in_worker=in_worker)
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
            generation=task.shard.generation,
        ):
            if chaos is not None:
                chaos.apply(task.shard, in_worker=in_worker)
            result = task.run()
    return result, perf_counter() - started, (os.getpid(), *tracer.export())
