"""The process-pool execution layer behind ``workers=`` evaluation.

A :class:`ParallelExecutor` takes a list of shard tasks
(:mod:`repro.parallel.tasks`), runs them on a
:class:`concurrent.futures.ProcessPoolExecutor`, and merges nothing —
it hands back raw per-shard results and lets the caller fold them,
because the fold differs per task kind (set union for naive shards,
positional merge for generator batches).

Every task is deterministic, so the executor has one failure policy:

* **a task error passes through** — the exception of the first
  failing task in plan order reaches the caller as raised (the error
  an in-process run over the same order meets first), the run's
  pending futures are cancelled, and the task is never re-run, since
  a re-run would fail the same way;
* **a dead worker is recovered** — a :class:`BrokenProcessPool`
  discards the pool, a fresh one is built and the unfinished tasks are
  resubmitted unchanged, up to :data:`MAX_POOL_RESTARTS` times per
  run, after which :class:`~repro.errors.WorkerCrashError` is raised.

Worker pools are shared per worker count across the process (fork
start-up is cheap but not free).

Every run accumulates into an :class:`ExecutionReport` — shard,
restart and wall/CPU-time accounting surfaced through
``QueryEngine.stats`` and the CLI ``--stats`` flag.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any

from repro.errors import ParallelExecutionError, WorkerCrashError
from repro.observability import current_tracer
from repro.parallel.sharding import OVERSHARD_FACTOR, plan_shards
from repro.parallel.tasks import execute_task

#: Pool rebuilds one run may make after its workers died; the next
#: death raises :class:`~repro.errors.WorkerCrashError`.
MAX_POOL_RESTARTS = 2


@dataclass
class ExecutionReport:
    """Structured accounting for one parallel evaluation.

    ``pooled`` tells whether any task reached the pool (the session
    may compute small batches in-process even when it holds an
    executor); ``restarts`` counts pools rebuilt after a worker died.
    ``task_seconds`` sums per-shard compute time across all workers —
    the CPU-time counterpart of ``wall_seconds``, so ``task_seconds /
    wall_seconds`` approximates achieved parallelism.  ``cache_hits``
    counts distinct generator bindings served from the session's
    ``generate`` cache instead of being dispatched at all.
    """

    workers: int = 1
    pooled: bool = False
    shards_planned: int = 0
    shards_completed: int = 0
    restarts: int = 0
    wall_seconds: float = 0.0
    task_seconds: float = 0.0
    cache_hits: int = 0

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of the report, stable for tests and JSON."""
        return asdict(self)


# -- shared worker pools ----------------------------------------------------

_POOLS: dict[int, ProcessPoolExecutor] = {}


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _POOLS[workers] = pool
    return pool


def _discard_pool(workers: int, pool: ProcessPoolExecutor) -> None:
    if _POOLS.get(workers) is pool:
        del _POOLS[workers]
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every shared worker pool; the next run builds afresh."""
    for workers in list(_POOLS):
        _discard_pool(workers, _POOLS[workers])


def default_worker_count() -> int:
    """The number of CPUs this process may run on (at least 1)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


class ParallelExecutor:
    """Runs shard tasks on a shared worker pool.

    One executor accumulates one :class:`ExecutionReport` across any
    number of :meth:`run` calls — the engines create an executor per
    query evaluation so the report describes exactly that evaluation.

    Shard planning, runs and pool restarts record into the ambient
    :func:`~repro.observability.current_tracer`.  While one is active,
    every worker traces its task privately and ships the spans back,
    and :meth:`run` folds them into the ambient tracer under its
    ``executor.run`` span.
    """

    def __init__(self, workers: int | None = None) -> None:
        """Configure the executor; no workers start until :meth:`run`.

        Args:
            workers: Worker-process count (default:
                :func:`default_worker_count`).

        Raises:
            ParallelExecutionError: If ``workers`` is not positive.
        """
        self.workers = workers if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ParallelExecutionError("worker count must be positive")
        self.report = ExecutionReport(workers=self.workers)

    def plan(self, total: int) -> tuple[range, ...]:
        """Shard ``[0, total)`` into ``workers × OVERSHARD_FACTOR`` ranges."""
        tracer = current_tracer()
        with tracer.span(
            "shard.plan", stage="shard", total=total, workers=self.workers
        ):
            shards = plan_shards(total, self.workers * OVERSHARD_FACTOR)
        tracer.add("shard.shards_planned", len(shards))
        return shards

    def run(self, tasks: Sequence[Any]) -> list[Any]:
        """Execute ``tasks`` on the pool, returning raw per-shard results.

        Results are collected in plan order (tasks resubmitted after a
        worker died come last); positional task kinds embed global
        indices, so the caller's fold does not depend on the order.

        Raises:
            Exception: Whatever the first failing task in plan order
                raised, unchanged — the error an in-process run over
                the same order meets first.
            WorkerCrashError: When workers keep dying after
                :data:`MAX_POOL_RESTARTS` pool rebuilds.
        """
        if not tasks:
            return []
        self.report.pooled = True
        self.report.shards_planned += len(tasks)
        started = perf_counter()
        with current_tracer().span(
            "executor.run",
            workers=self.workers,
            tasks=len(tasks),
            items=sum(len(task.shard) for task in tasks),
        ):
            try:
                return self._drive_pool(list(tasks))
            finally:
                self.report.wall_seconds += perf_counter() - started

    def _drive_pool(self, tasks: list[Any]) -> list[Any]:
        results: list[Any] = []
        for attempt in range(MAX_POOL_RESTARTS + 1):
            if attempt:
                self.report.restarts += 1
                current_tracer().add("executor.restarts")
            pool = _shared_pool(self.workers)
            tasks = self._attempt(pool, tasks, results)
            if not tasks:
                return results
            _discard_pool(self.workers, pool)
        raise WorkerCrashError(
            f"a worker process died in each of {MAX_POOL_RESTARTS + 1} "
            f"pools; {len(tasks)} task(s) never finished"
        )

    def _attempt(
        self, pool: ProcessPoolExecutor, tasks: list[Any], results: list[Any]
    ) -> list[Any]:
        """Run ``tasks`` on ``pool``, appending to ``results``.

        Returns:
            The tasks a dead worker left unfinished (empty when the
            pool stayed whole).
        """
        tracer = current_tracer()
        try:
            futures = [
                pool.submit(execute_task, task, tracer.enabled)
                for task in tasks
            ]
        except BrokenProcessPool:
            return tasks
        unfinished = []
        try:
            for task, future in zip(tasks, futures):
                try:
                    result, seconds, trace = future.result()
                except BrokenProcessPool:
                    unfinished.append(task)
                    continue
                results.append(result)
                self.report.shards_completed += 1
                self.report.task_seconds += seconds
                if trace is not None:
                    pid, records, counters, gauges = trace
                    tracer.absorb(records, counters, gauges, worker=pid)
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return unfinished
