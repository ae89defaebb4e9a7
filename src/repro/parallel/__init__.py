"""Process-pool sharded evaluation (:mod:`repro.parallel`).

The pool runs two kinds of independent work: the ``Σ^{<=l}`` candidate
space of the reference semantics, and the generator runs of Definition
3.1 (one Lemma 3.1 specialization per bound tuple).  This package
supplies the pieces:

* :func:`~repro.parallel.sharding.plan_shards` — deterministic
  partitioning of any ``[0, total)`` index space into ``range``
  shards, and :func:`~repro.parallel.sharding.decode_candidate`, the
  mixed-radix decoding of a naive candidate index;
* :mod:`~repro.parallel.tasks` — picklable shard task descriptors and
  the module-level worker entry point;
* :class:`~repro.parallel.executor.ParallelExecutor` — the
  ``concurrent.futures`` pool runner: a task's exception reaches the
  caller unchanged, a dead worker is recovered by rebuilding the pool,
  and every run is accounted in an
  :class:`~repro.parallel.executor.ExecutionReport`.

Only the ``auto`` engine of :mod:`repro.engine.strategies` builds an
executor, from the ``workers=`` argument of ``QueryEngine.evaluate``
and its cost estimates.  Generator runs reach the pool through one
place, ``QueryEngine.generated``, which serves cache hits first,
computes small batches of misses in-process and ships the rest to the
workers; this package is engine-agnostic plumbing.
"""

from repro.parallel.executor import (
    ExecutionReport,
    ParallelExecutor,
    default_worker_count,
    shutdown_pools,
)
from repro.parallel.sharding import decode_candidate, plan_shards
from repro.parallel.tasks import GenerateShardTask, NaiveShardTask

__all__ = [
    "ExecutionReport",
    "GenerateShardTask",
    "NaiveShardTask",
    "ParallelExecutor",
    "decode_candidate",
    "default_worker_count",
    "plan_shards",
    "shutdown_pools",
]
