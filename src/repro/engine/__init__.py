"""The query engine layer: sessions, strategies, and the registry.

This package makes repeated and batched query traffic the fast path:

* :class:`QueryEngine` — a session object owning per-artifact caches
  (compiled k-FSAs, specializations, generated answer sets, algebra
  translations, limit reports) keyed by structural formula identity,
  with hit/miss instrumentation, plus ``evaluate`` / ``evaluate_many``
  entry points.
* The **engine registry** — :func:`register_engine` /
  :func:`get_engine` over the :class:`Engine` protocol, replacing the
  stringly-typed dispatch that used to live inside ``Query.evaluate``.
  The built-ins ``naive`` and ``algebra`` (the paper's reference
  routes) and ``auto`` (the production engine) are registered on
  import.

``Query.evaluate`` routes through :func:`default_engine`, the lazily
created process-wide session, so plain library use gets artifact reuse
for free; heavy workloads should hold their own sessions.
"""

from repro.engine.caches import CacheStats, EngineStats, KeyedCache
from repro.engine.registry import (
    Engine,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.engine.strategies import (
    AlgebraEngine,
    AutoEngine,
    NaiveEngine,
    register_default_engines,
)
from repro.engine.session import (
    QueryEngine,
    default_engine,
    set_default_engine,
)

__all__ = [
    "AlgebraEngine",
    "AutoEngine",
    "CacheStats",
    "Engine",
    "EngineStats",
    "KeyedCache",
    "NaiveEngine",
    "QueryEngine",
    "available_engines",
    "default_engine",
    "get_engine",
    "register_default_engines",
    "register_engine",
    "set_default_engine",
    "unregister_engine",
]
