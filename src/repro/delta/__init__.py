"""Database deltas: the mutation path through every layer.

The rest of the library treats a :class:`~repro.core.database.Database`
as an immutable value — and it stays one.  A mutation is a *derivation*:
:class:`Delta` is a frozen value describing row inserts and deletes,
``Database.apply(delta)`` returns a **new** database version whose
per-relation version counters moved forward, storage backends derive
updated indexes through their ``apply_delta`` hooks, and the engine
session (:meth:`repro.engine.QueryEngine.apply_delta`) incrementally
maintains its materialized answers (:class:`MaterializedStore`).  The
session caches need no eviction: their keys hold every input, and a
plan priced against old statistics is replaced on its next lookup.

:class:`DeltaLog` is the batching API: accumulate inserts and deletes
in arrival order, then :meth:`~DeltaLog.build` the net-effect
:class:`Delta` once.
"""

from repro.delta.log import Delta, DeltaLog
from repro.delta.materialize import MaterializedAnswer, MaterializedStore

__all__ = [
    "Delta",
    "DeltaLog",
    "MaterializedAnswer",
    "MaterializedStore",
]
