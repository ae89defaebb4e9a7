"""Cache-aware sharded generation and simulation batches.

The planner's generate step and the algebra's generative selection
share one shape of work: *one* generator machine, *many* ``fixed``
bindings, one independent :func:`~repro.fsa.generate.accepted_tuples`
run per binding.  This module is the single implementation both layers
call when an executor is in play:

1. bindings already answered by the session's ``generate`` cache are
   served locally (and counted as ``cache_hits`` on the execution
   report — worker processes cannot see the parent's caches, so
   hit accounting has to happen before dispatch);
2. the remaining distinct bindings are sharded across the pool as
   :class:`~repro.parallel.tasks.GenerateShardTask` batches;
3. worker results are folded back into the session cache, so the next
   query — parallel or not — reuses them; each folded binding with a
   non-empty ``fixed`` map also counts the ``specialize`` miss its
   worker paid, so the session's cache stats do not depend on the
   worker count.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from repro.observability import current_tracer
from repro.parallel.sharding import Shard
from repro.parallel.tasks import (
    GenerateShardTask,
    SimulateShardTask,
    fixed_items,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import QueryEngine
    from repro.fsa.machine import FSA
    from repro.parallel.executor import ParallelExecutor

_MISS = object()


def generated_for_fixed(
    fsa: "FSA",
    max_length: int,
    fixed_list: Sequence[Mapping[int, str]],
    *,
    session: "QueryEngine | None" = None,
    executor: "ParallelExecutor | None" = None,
) -> list[frozenset[tuple[str, ...]]]:
    """Answer sets for each ``fixed`` binding, in input order.

    Args:
        fsa: The generator machine (shared by every binding).
        max_length: Generation cap passed to ``accepted_tuples``.
        fixed_list: One ``{tape: value}`` binding per requested run.
        session: Optional :class:`~repro.engine.QueryEngine` whose
            ``generate`` cache serves repeat bindings and absorbs
            worker results.
        executor: Optional :class:`~repro.parallel.ParallelExecutor`
            that shards the unresolved bindings across workers.

    Returns:
        The per-binding answer sets, positionally aligned with
        ``fixed_list``.
    """
    tracer = executor.tracer if executor is not None else current_tracer()
    keys = [fixed_items(fixed) for fixed in fixed_list]
    values: list = [_MISS] * len(keys)
    if session is not None:
        for position, key in enumerate(keys):
            hit = session.peek_generated(fsa, max_length, key)
            if hit is not None:
                values[position] = hit
    # Distinct unresolved bindings, first-seen order.
    unique: dict[tuple, frozenset | object] = {}
    for position, key in enumerate(keys):
        if values[position] is _MISS:
            unique.setdefault(key, _MISS)
    pending = list(unique)
    hits = sum(1 for value in values if value is not _MISS)
    if hits:
        tracer.add("generate.cache_hits", hits)
    if executor is not None:
        executor.report.cache_hits += hits
    if pending:
        if executor is not None:
            shards = executor.plan(len(pending))
            # Cache-served bindings never reach the executor, so after
            # a delta the deterministic shard plan covers exactly the
            # invalidated (dirty) slice of the binding space.
            tracer.gauge("generate.dirty_shards", len(shards))
            tasks = [
                GenerateShardTask(
                    shard,
                    fsa,
                    max_length,
                    tuple(pending[shard.start : shard.stop]),
                )
                for shard in shards
            ]
            shard_results = executor.run(tasks)
            with tracer.span(
                "fold.generate",
                stage="fold",
                shards=len(shard_results),
                bindings=len(pending),
            ):
                for pairs in shard_results:
                    for position, answers in pairs:
                        unique[pending[position]] = answers
        else:
            from repro.fsa.generate import accepted_tuples

            for key in pending:
                if session is not None:
                    unique[key] = session.generated(
                        fsa, max_length, dict(key)
                    )
                else:
                    unique[key] = accepted_tuples(
                        fsa, max_length, dict(key) if key else None
                    )
        if session is not None and executor is not None:
            for key, answers in unique.items():
                session.store_generated(fsa, max_length, key, answers)
    return [
        values[position] if values[position] is not _MISS else unique[key]
        for position, key in enumerate(keys)
    ]


def filter_accepted(
    fsa: "FSA",
    rows: Sequence[tuple[str, ...]],
    *,
    executor: "ParallelExecutor | None" = None,
) -> frozenset[tuple[str, ...]]:
    """The rows accepted by ``fsa`` — sharded when an executor is given.

    Args:
        fsa: The acceptance machine to run on each row.
        rows: The candidate rows (tuples of strings, one per tape).
        executor: Optional :class:`~repro.parallel.ParallelExecutor`;
            when given the acceptance checks are sharded as
            :class:`~repro.parallel.tasks.SimulateShardTask` batches.

    Returns:
        The subset of ``rows`` the machine accepts.
    """
    rows = list(rows)
    if executor is None:
        from repro.fsa.simulate import accepts_batch

        # One compiled kernel, one validation pass, shared scratch
        # buffers for the whole row batch (repro.fsa.kernel) — and
        # one early-exit table scan per row under the scan kernel.
        verdicts = accepts_batch(fsa, rows)
        return frozenset(
            row for row, verdict in zip(rows, verdicts) if verdict
        )
    shards = executor.plan(len(rows))
    tasks = [
        SimulateShardTask(shard, fsa, tuple(rows[shard.start : shard.stop]))
        for shard in shards
    ]
    shard_results = executor.run(tasks)
    kept = set()
    with executor.tracer.span(
        "fold.filter", stage="fold", shards=len(shard_results), rows=len(rows)
    ):
        for pairs in shard_results:
            for position, verdict in pairs:
                if verdict:
                    kept.add(rows[position])
    return frozenset(kept)


__all__ = ["generated_for_fixed", "filter_accepted", "Shard"]
