"""Process-pool sharded evaluation (:mod:`repro.parallel`).

The paper's alignment-algebra semantics partition cleanly into
independent shards — the ``Σ^{<=l}`` candidate space of the naive
engine, the per-binding generator runs of the planner, the row loops
of algebra selection.  This package supplies the pieces:

* :class:`~repro.parallel.sharding.ShardPlanner` /
  :class:`~repro.parallel.sharding.Shard` — deterministic,
  cache-key-stable partitioning of any ``[0, total)`` index space;
* :mod:`~repro.parallel.tasks` — picklable shard task descriptors and
  the module-level worker entry point, plus the
  :class:`~repro.parallel.tasks.ChaosPolicy` fault-injection hook;
* :class:`~repro.parallel.executor.ParallelExecutor` — the
  ``concurrent.futures`` pool driver with per-shard timeouts, crash
  recovery, retry-with-re-splitting, a sequential fallback and the
  :class:`~repro.parallel.executor.ExecutionReport` accounting;
* :mod:`~repro.parallel.generation` — the cache-aware batch helpers
  the plan executor and the algebra layer call into.

The user-facing entry point is the ``workers=`` argument of
``QueryEngine.evaluate``, which the ``auto`` and ``algebra`` engines
of :mod:`repro.engine.strategies` honour; this package is
engine-agnostic plumbing.
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
    SimulateShardTask,
)

__all__ = [
    "ChaosPolicy",
    "ExecutionReport",
    "GenerateShardTask",
    "NaiveShardTask",
    "ParallelExecutor",
    "Shard",
    "ShardPlanner",
    "SimulateShardTask",
    "decode_candidate",
    "default_worker_count",
    "shutdown_pools",
]
