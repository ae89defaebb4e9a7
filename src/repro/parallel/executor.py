"""The process-pool execution layer behind ``workers=`` evaluation.

A :class:`ParallelExecutor` takes a list of shard tasks
(:mod:`repro.parallel.tasks`), runs them across a
:class:`concurrent.futures.ProcessPoolExecutor`, and merges nothing —
it hands back raw per-shard results and lets the caller fold them,
because the fold differs per task kind (set union for naive shards,
positional merge for generator batches).

Robustness is the point of this module rather than an afterthought:

* **per-shard timeouts** — every submitted shard carries a deadline;
  an overdue shard is abandoned (its worker finishes in the
  background) and re-run as smaller shards;
* **retry with re-splitting** — a failed or timed-out shard is split
  in half (:meth:`~repro.parallel.sharding.Shard.split`) and both
  halves retried with a bumped ``generation``; shards keep shrinking
  until they succeed or the generation budget ``max_retries`` is
  exhausted, at which point a typed
  :class:`~repro.errors.ParallelExecutionError` subclass propagates;
* **worker-crash recovery** — a :class:`BrokenProcessPool` invalidates
  the pool, a fresh one is built, and every in-flight shard is
  resubmitted;
* **sequential fallback** — with one worker, or when the total work is
  below ``min_parallel_items``, tasks run in-process through exactly
  the same retry machinery (timeouts excepted: an in-process shard
  cannot be interrupted).

Worker pools are shared per worker-count across the process (fork
start-up is cheap but not free); fault-injected runs always get a
private pool so abandoned hung workers cannot pollute later runs.

Every run accumulates into an :class:`ExecutionReport` — shard,
retry, timeout and wall/CPU-time accounting surfaced through
``QueryEngine.stats`` and the CLI ``--stats`` flag.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Sequence
from contextlib import nullcontext
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Any

from repro.errors import (
    ParallelExecutionError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.observability import NULL_TRACER, activate
from repro.parallel.sharding import ShardPlanner
from repro.parallel.tasks import ChaosPolicy, execute_task

#: Below this many total candidate items a pool round trip costs more
#: than it saves and the executor falls back to in-process execution.
DEFAULT_MIN_PARALLEL_ITEMS = 32


@dataclass
class ExecutionReport:
    """Structured accounting for one parallel evaluation.

    ``task_seconds`` sums per-shard compute time across all workers —
    the CPU-time counterpart of ``wall_seconds``, so ``task_seconds /
    wall_seconds`` approximates achieved parallelism.  ``cache_hits``
    counts distinct generator bindings served from the session's
    ``generate`` cache instead of being dispatched at all.
    """

    mode: str = "sequential"
    workers: int = 1
    shards_planned: int = 0
    shards_completed: int = 0
    retries: int = 0
    resplits: int = 0
    timeouts: int = 0
    failures: int = 0
    wall_seconds: float = 0.0
    task_seconds: float = 0.0
    cache_hits: int = 0

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of the report, stable for tests and JSON."""
        return {
            "mode": self.mode,
            "workers": self.workers,
            "shards_planned": self.shards_planned,
            "shards_completed": self.shards_completed,
            "retries": self.retries,
            "resplits": self.resplits,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "wall_seconds": self.wall_seconds,
            "task_seconds": self.task_seconds,
            "cache_hits": self.cache_hits,
        }


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
    """Shut down every shared worker pool (used by tests/atexit)."""
    for workers in list(_POOLS):
        _discard_pool(workers, _POOLS[workers])


def default_worker_count() -> int:
    """The CPU count of this machine (at least 1)."""
    return os.cpu_count() or 1


class ParallelExecutor:
    """Runs shard tasks with retry, re-splitting and timeouts.

    One executor accumulates one :class:`ExecutionReport` across any
    number of :meth:`run` calls — the engines create an executor per
    query evaluation so the report describes exactly that evaluation.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        timeout: float | None = None,
        max_retries: int = 2,
        chaos: ChaosPolicy | None = None,
        min_parallel_items: int = DEFAULT_MIN_PARALLEL_ITEMS,
        planner: ShardPlanner | None = None,
        tracer=None,
    ) -> None:
        """Configure the executor; no workers start until :meth:`run`.

        Args:
            workers: Worker-process count (default: CPU count).
            timeout: Per-shard deadline in seconds; ``None`` disables
                timeout handling.
            max_retries: Retry-generation budget per shard chain.
            chaos: Optional deterministic fault-injection policy; its
                presence forces a private worker pool.
            min_parallel_items: Total-item threshold below which the
                sequential fallback is used.
            planner: Shard planner (default: a fresh
                :class:`~repro.parallel.sharding.ShardPlanner`).
            tracer: An :class:`~repro.observability.Tracer` recording
                shard planning and execution spans; worker-side spans
                are folded back into it.  Defaults to the no-op
                :data:`~repro.observability.NULL_TRACER`.

        Raises:
            ParallelExecutionError: If ``max_retries`` is negative or
                ``workers`` is not positive.
        """
        if max_retries < 0:
            raise ParallelExecutionError("max_retries must be non-negative")
        self.workers = workers if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ParallelExecutionError("worker count must be positive")
        self.timeout = timeout
        self.max_retries = max_retries
        self.chaos = chaos
        self.min_parallel_items = min_parallel_items
        self.planner = planner or ShardPlanner()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.report = ExecutionReport(workers=self.workers)

    # -- planning helpers ----------------------------------------------

    def plan(self, total: int):
        """Shard ``[0, total)`` with this executor's planner + workers."""
        with self.tracer.span(
            "shard.plan", stage="shard", total=total, workers=self.workers
        ):
            shards = self.planner.plan(total, self.workers)
        self.tracer.add("shard.shards_planned", len(shards))
        return shards

    # -- execution ------------------------------------------------------

    def run(self, tasks: Sequence[Any]) -> list[Any]:
        """Execute ``tasks``, returning raw per-shard results.

        Results are unordered and may come from re-split sub-shards;
        positional task kinds embed global indices for exactly that
        reason.  Raises a :class:`ParallelExecutionError` subclass when
        any shard chain exhausts its retry budget.
        """
        if not tasks:
            return []
        self.report.shards_planned += len(tasks)
        total_items = sum(task.shard.size for task in tasks)
        use_pool = (
            self.workers > 1 and total_items >= self.min_parallel_items
        )
        started = perf_counter()
        with self.tracer.span(
            "executor.run",
            mode="parallel" if use_pool else "sequential",
            workers=self.workers,
            tasks=len(tasks),
            items=total_items,
        ):
            try:
                if use_pool:
                    self.report.mode = "parallel"
                    return self._run_pooled(list(tasks))
                return self._run_sequential(list(tasks))
            finally:
                self.report.wall_seconds += perf_counter() - started

    # -- shared failure handling ----------------------------------------

    def _giving_up(self, task: Any, kind: str) -> ParallelExecutionError:
        detail = (
            f"shard [{task.shard.start}, {task.shard.stop}) failed after "
            f"{task.shard.generation} retry generation(s) "
            f"(budget {self.max_retries})"
        )
        if kind == "timeout":
            return ShardTimeoutError(f"{detail}: last failure was a timeout")
        if kind == "crash":
            return WorkerCrashError(
                f"{detail}: last failure was a worker-process death"
            )
        return ParallelExecutionError(f"{detail}: last failure was an error")

    def _retry_tasks(self, task: Any, kind: str) -> list[Any]:
        """Re-split a failed task into retry tasks, or raise.

        Args:
            task: The failed shard task.
            kind: The failure class — ``"failure"``, ``"timeout"`` or
                ``"crash"`` — selecting the error type when the retry
                budget is exhausted.

        Returns:
            The replacement tasks (usually the two halves of the shard
            with a bumped generation).

        Raises:
            ParallelExecutionError: When ``task`` has already used its
                ``max_retries`` generations (a typed subclass matching
                ``kind``).
        """
        self.report.failures += 1
        self.tracer.add("executor.failures")
        if kind == "timeout":
            self.report.timeouts += 1
            self.tracer.add("executor.timeouts")
        if task.shard.generation >= self.max_retries:
            raise self._giving_up(task, kind)
        children = task.shard.split(2)
        if len(children) > 1:
            self.report.resplits += 1
            self.tracer.add("executor.resplits")
        self.report.retries += 1
        self.tracer.add("executor.retries")
        return [task.narrowed(shard) for shard in children]

    # -- sequential fallback --------------------------------------------

    def _run_sequential(self, tasks: list[Any]) -> list[Any]:
        """Run every task in-process under this executor's tracer."""
        tracer = self.tracer
        results: list[Any] = []
        queue = deque(tasks)
        # Only claim the ambient-tracer slot when actually tracing:
        # activating the null tracer would silence any caller-activated
        # tracer for the duration of the run.
        scope = activate(tracer) if tracer.enabled else nullcontext()
        with scope:
            while queue:
                task = queue.popleft()
                try:
                    with tracer.span(
                        "execute.shard",
                        stage="execute",
                        kind=type(task).__name__,
                        start=task.shard.start,
                        stop=task.shard.stop,
                        generation=task.shard.generation,
                    ):
                        result, seconds, _ = execute_task(
                            task, self.chaos, in_worker=False
                        )
                except Exception:
                    queue.extend(self._retry_tasks(task, "failure"))
                    continue
                results.append(result)
                self.report.shards_completed += 1
                self.report.task_seconds += seconds
        return results

    # -- pooled execution -----------------------------------------------

    def _run_pooled(self, tasks: list[Any]) -> list[Any]:
        private = self.chaos is not None
        pool = (
            ProcessPoolExecutor(max_workers=self.workers)
            if private
            else _shared_pool(self.workers)
        )
        try:
            return self._drive_pool(pool, tasks, private)
        finally:
            if private:
                pool.shutdown(wait=False, cancel_futures=True)

    def _drive_pool(
        self,
        pool: ProcessPoolExecutor,
        tasks: list[Any],
        private: bool,
    ) -> list[Any]:
        results: list[Any] = []
        pending: dict[Future, tuple[Any, float | None]] = {}
        traced = self.tracer.enabled

        def submit(task: Any) -> None:
            nonlocal pool
            deadline = (
                monotonic() + self.timeout if self.timeout is not None else None
            )
            try:
                future = pool.submit(
                    execute_task, task, self.chaos, traced=traced
                )
            except BrokenProcessPool:
                pool = self._replace_pool(pool, private)
                future = pool.submit(
                    execute_task, task, self.chaos, traced=traced
                )
            pending[future] = (task, deadline)

        for task in tasks:
            submit(task)

        while pending:
            now = monotonic()
            deadlines = [d for _, d in pending.values() if d is not None]
            wait_for = (
                max(0.0, min(deadlines) - now) if deadlines else None
            )
            done, _ = wait(
                set(pending), timeout=wait_for, return_when=FIRST_COMPLETED
            )
            retry_queue: list[Any] = []
            broken = False
            for future in done:
                task, _deadline = pending.pop(future)
                try:
                    result, seconds, trace = future.result()
                except BrokenProcessPool:
                    broken = True
                    retry_queue.extend(self._retry_tasks(task, "crash"))
                except Exception:
                    retry_queue.extend(self._retry_tasks(task, "failure"))
                else:
                    results.append(result)
                    self.report.shards_completed += 1
                    self.report.task_seconds += seconds
                    if trace is not None:
                        pid, records, counters, gauges = trace
                        self.tracer.absorb(
                            records, counters, gauges, worker=pid
                        )
            # Scan for overdue shards: abandon their futures (a running
            # worker cannot be interrupted) and re-split the work.
            now = monotonic()
            for future in [
                f
                for f, (_, deadline) in pending.items()
                if deadline is not None and deadline <= now
            ]:
                task, _deadline = pending.pop(future)
                future.cancel()
                retry_queue.extend(self._retry_tasks(task, "timeout"))
            if broken:
                pool = self._replace_pool(pool, private)
                # Every other in-flight future died with the pool;
                # recover their tasks for resubmission.
                for future, (task, _deadline) in list(pending.items()):
                    pending.pop(future)
                    retry_queue.extend(self._retry_tasks(task, "crash"))
            for task in retry_queue:
                submit(task)
        return results

    def _replace_pool(
        self, pool: ProcessPoolExecutor, private: bool
    ) -> ProcessPoolExecutor:
        if private:
            pool.shutdown(wait=False, cancel_futures=True)
            return ProcessPoolExecutor(max_workers=self.workers)
        _discard_pool(self.workers, pool)
        return _shared_pool(self.workers)

