"""Instrumented caches backing a :class:`~repro.engine.QueryEngine`.

Every compiled artifact the engine reuses — Theorem 3.1 machines,
compiled simulation kernels (:mod:`repro.fsa.kernel`), Lemma 3.1
specializations, generated answer sets, Theorem 4.2 algebra
translations, Section 5 limit reports — lives in a :class:`KeyedCache`
keyed by *structural* identity: formulae, alphabets and machines are
frozen values, so two independently constructed but equal formulae
share one cache entry.  Each cache counts hits and misses and accounts
the wall-clock time spent computing misses, so benchmarks can assert
reuse instead of guessing at it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any


@dataclass
class CacheStats:
    """Hit/miss counters plus time spent computing misses.

    ``invalidated`` counts the stamped entries replaced in place (see
    :class:`KeyedCache`).
    """

    hits: int = 0
    misses: int = 0
    seconds: float = 0.0
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float | int]:
        """A plain-dict view: hits, misses, hit_rate, miss seconds.

        Returns:
            A JSON-friendly dict with the counter values (``hit_rate``
            rounded to four decimals) plus the replacement count.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "seconds": self.seconds,
            "invalidated": self.invalidated,
        }


class KeyedCache:
    """A memo table with hit/miss instrumentation and optional bounding.

    ``max_entries`` bounds memory for caches whose values can be large
    (generated answer sets); eviction is oldest-first, which is enough
    for the repeated-query traffic the engine targets.  ``None`` values
    are cached like any other result (limit reports legitimately derive
    to "no bound certifiable").

    The key holds every input the value is computed from, so no entry
    ever goes stale.  A cache whose values also depend on inputs that
    move under updates (the normalized plan, priced against the
    database's statistics) passes those inputs as a ``stamp`` instead:
    the cache keeps one entry per key, and a lookup under another
    stamp recomputes the value and replaces the entry in place,
    counting the replacement in ``stats.invalidated``.  Unstamped
    entries carry the stamp ``None``.
    """

    __slots__ = ("name", "stats", "_store", "_max_entries")

    def __init__(self, name: str, max_entries: int | None = None) -> None:
        self.name = name
        self.stats = CacheStats()
        # key -> (stamp, value)
        self._store: dict[Hashable, tuple[Hashable, Any]] = {}
        self._max_entries = max_entries

    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        stamp: Hashable = None,
    ) -> Any:
        """Return the cached value for ``key``, computing it on a miss.

        Args:
            key: The (hashable, structural) cache key.
            compute: Zero-argument callable producing the value; its
                wall-clock time is accounted as miss seconds.
            stamp: The inputs the value depends on beyond ``key``; an
                entry stored under another stamp is recomputed and
                replaced.

        Returns:
            The cached or freshly computed value.
        """
        entry = self._store.get(key)
        if entry is not None and entry[0] == stamp:
            self.stats.hits += 1
            return entry[1]
        started = perf_counter()
        value = compute()
        self.stats.seconds += perf_counter() - started
        self.stats.misses += 1
        if entry is not None:
            self.stats.invalidated += 1
        self._insert(key, (stamp, value))
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up an unstamped ``key`` without computing on a miss.

        A present key counts as a hit; an absent key counts nothing —
        the caller is expected to come back through
        :meth:`get_or_compute` or :meth:`store` with the real value.
        ``QueryEngine.generated`` uses it to split "served from cache"
        from "computed", in-process or by a worker.
        """
        entry = self._store.get(key)
        if entry is None:
            return default
        self.stats.hits += 1
        return entry[1]

    def store(self, key: Hashable, value: Any, seconds: float = 0.0) -> Any:
        """Insert an externally computed, unstamped value (a worker's).

        Accounted as a miss — the value *was* computed, just not by
        this process — with ``seconds`` of compute time attributed.
        Re-storing an existing key refreshes the value.
        """
        if key not in self._store:
            self.stats.misses += 1
            self.stats.seconds += seconds
        self._insert(key, (None, value))
        return value

    def _insert(self, key: Hashable, entry: tuple[Hashable, Any]) -> None:
        if (
            self._max_entries is not None
            and key not in self._store
            and len(self._store) >= self._max_entries
        ):
            self._store.pop(next(iter(self._store)))
        self._store[key] = entry

    def __len__(self) -> int:
        return len(self._store)


@dataclass
class EngineStats:
    """Aggregated instrumentation for one :class:`QueryEngine` session."""

    caches: dict[str, CacheStats] = field(default_factory=dict)
    evaluations: dict[str, int] = field(default_factory=dict)
    engine_seconds: dict[str, float] = field(default_factory=dict)
    parallel: dict[str, float | int] = field(default_factory=dict)
    rejects: dict[str, int] = field(default_factory=dict)

    def register_cache(self, cache: KeyedCache) -> KeyedCache:
        """Adopt ``cache``'s stats into this session's accounting.

        Args:
            cache: The cache whose :class:`CacheStats` to track.

        Returns:
            The cache itself, for chaining at construction sites.
        """
        self.caches[cache.name] = cache.stats
        return cache

    def record_evaluation(self, engine_name: str, seconds: float) -> None:
        """Count one engine evaluation and its wall-clock time.

        Args:
            engine_name: The registry name of the strategy that ran.
            seconds: The evaluation's wall-clock duration.
        """
        self.evaluations[engine_name] = self.evaluations.get(engine_name, 0) + 1
        self.engine_seconds[engine_name] = (
            self.engine_seconds.get(engine_name, 0.0) + seconds
        )

    def record_reject(self, reason: str) -> None:
        """Count one plan rejection (fallback to naive evaluation).

        Args:
            reason: The stable rejection reason from the plan's
                :class:`~repro.ir.plan.NaivePlan` root.
        """
        self.rejects[reason] = self.rejects.get(reason, 0) + 1

    def record_parallel(self, report: Any) -> None:
        """Fold one execution report into the parallel accounting.

        Args:
            report: An :class:`~repro.parallel.executor
                .ExecutionReport` (anything with its ``snapshot()``).
        """
        snapshot = report.snapshot()
        totals = self.parallel
        totals["runs"] = totals.get("runs", 0) + 1
        totals["pooled_runs"] = totals.get("pooled_runs", 0) + int(
            snapshot.get("pooled", False)
        )
        totals["workers"] = max(
            totals.get("workers", 1), snapshot.get("workers", 1)
        )
        for key in (
            "shards_planned",
            "shards_completed",
            "restarts",
            "wall_seconds",
            "task_seconds",
            "cache_hits",
        ):
            totals[key] = totals.get(key, 0) + snapshot.get(key, 0)

    def snapshot(self) -> dict[str, Any]:
        """A plain-data view, stable enough for tests and CLI output."""
        return {
            "caches": {
                name: stats.snapshot() for name, stats in self.caches.items()
            },
            "evaluations": dict(self.evaluations),
            "engine_seconds": dict(self.engine_seconds),
            "parallel": dict(self.parallel),
            "rejects": dict(self.rejects),
        }
