"""Process-pool sharded evaluation (:mod:`repro.parallel`).

The pool runs two kinds of independent work: the ``Σ^{<=l}`` candidate
space of the reference semantics, and the generator runs of Definition
3.1 (one Lemma 3.1 specialization per bound tuple).  This package
supplies the pieces:

* :class:`~repro.parallel.sharding.ShardPlanner` /
  :class:`~repro.parallel.sharding.Shard` — deterministic,
  cache-key-stable partitioning of any ``[0, total)`` index space;
* :mod:`~repro.parallel.tasks` — picklable shard task descriptors and
  the module-level worker entry point, plus the
  :class:`~repro.parallel.tasks.ChaosPolicy` fault-injection hook;
* :class:`~repro.parallel.executor.ParallelExecutor` — the
  ``concurrent.futures`` pool driver with per-shard timeouts, crash
  recovery, retry-with-re-splitting, a sequential fallback and the
  :class:`~repro.parallel.executor.ExecutionReport` accounting.

Only the ``auto`` engine of :mod:`repro.engine.strategies` builds an
executor, from the ``workers=`` argument of ``QueryEngine.evaluate``
and its cost estimates.  Generator runs reach the pool through one
place, ``QueryEngine.generated``, which serves cache hits first and
stores what the workers return; this package is engine-agnostic
plumbing.
"""

from repro.parallel.executor import (
    ExecutionReport,
    ParallelExecutor,
    default_worker_count,
    shutdown_pools,
)
from repro.parallel.sharding import Shard, ShardPlanner, decode_candidate
from repro.parallel.tasks import (
    ChaosPolicy,
    GenerateShardTask,
    NaiveShardTask,
)

__all__ = [
    "ChaosPolicy",
    "ExecutionReport",
    "GenerateShardTask",
    "NaiveShardTask",
    "ParallelExecutor",
    "Shard",
    "ShardPlanner",
    "decode_candidate",
    "default_worker_count",
    "shutdown_pools",
]
