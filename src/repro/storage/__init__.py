"""Pluggable relation storage for string databases.

The :class:`~repro.storage.base.RelationStorage` protocol decouples
*what* a database maps each relation symbol to (a finite set of string
tuples — paper, Section 2) from *how* the tuples are held:

* :class:`~repro.storage.base.InMemoryStorage` — the historical
  frozenset representation; the reference backend.
* :class:`~repro.storage.ngram.NGramIndexStorage` — n-gram inverted
  indexes (each gram's sorted row ids) per column, optionally
  serialized to an immutable memory-mapped artifact
  (:mod:`repro.storage.artifact`) that builds once and is shared
  read-only across sessions and worker processes.
* :class:`~repro.storage.slp.SLPStorage` — cells held as straight-line
  programs (:mod:`repro.slp`): membership and deltas are structural,
  statistics and n-gram prefilter probes read off the grammars, and
  only rows an engine actually enumerates are ever decompressed.

:func:`storage_factory` turns a storage *kind* name (``"memory"``,
``"ngram"``, ``"slp"``) into the callable :class:`repro.core.database.Database`
accepts via its ``storage=`` parameter; :func:`probe_candidates` is the
uniform prefilter entry point engines call without caring whether the
backend is indexed at all.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from pathlib import Path

from repro.errors import StorageError
from repro.storage.artifact import ArtifactReader, MAGIC, VERSION
from repro.storage.base import (
    EMPTY_STORAGE,
    ColumnStats,
    InMemoryStorage,
    Relation,
    RelationStats,
    RelationStorage,
    apply_storage_delta,
    compute_stats,
    is_storage,
)
from repro.storage.ngram import DEFAULT_N, NGramIndexStorage
from repro.storage.slp import SLPStorage

#: The storage kinds :func:`storage_factory` understands.
STORAGE_KINDS = ("memory", "ngram", "slp")

#: The signature of a storage factory: ``(name, tuples, alphabet) → storage``.
StorageFactory = Callable[
    [str, Iterable[tuple[str, ...]], object], RelationStorage
]


def storage_factory(
    kind: str = "memory",
    *,
    index_dir: "str | Path | None" = None,
    n: int = DEFAULT_N,
) -> StorageFactory:
    """A factory building one storage per relation, by kind name.

    Args:
        kind: One of :data:`STORAGE_KINDS`.  ``"memory"`` wraps tuples
            in an :class:`InMemoryStorage`; ``"ngram"`` builds an
            :class:`NGramIndexStorage` — in memory when ``index_dir``
            is ``None``, else backed by a ``<name>.ngx`` artifact under
            ``index_dir`` (reused across runs via content fingerprint);
            ``"slp"`` compresses every cell into an
            :class:`~repro.storage.slp.SLPStorage`.
        index_dir: Where ``"ngram"`` artifacts live.
        n: The gram size for ``"ngram"`` and ``"slp"``.

    Returns:
        A callable suitable for ``Database(..., storage=...)``.

    Raises:
        StorageError: For an unknown kind.
    """
    if kind == "memory":

        def make_memory(name, tuples, alphabet):
            return InMemoryStorage(tuples)

        return make_memory
    if kind == "ngram":

        def make_ngram(name, tuples, alphabet):
            if index_dir is None:
                return NGramIndexStorage.build(tuples, n=n)
            return NGramIndexStorage.ensure(
                Path(index_dir) / f"{name}.ngx", tuples, n=n
            )

        return make_ngram
    if kind == "slp":

        def make_slp(name, tuples, alphabet):
            return SLPStorage.build(tuples, n=n)

        return make_slp
    raise StorageError(
        f"unknown storage kind {kind!r}; expected one of {STORAGE_KINDS}"
    )


def resolve_storage_factory(
    storage: "str | StorageFactory | None",
) -> StorageFactory:
    """Normalize a ``storage=`` argument into a factory callable.

    Args:
        storage: ``None`` (the in-memory default), a kind name from
            :data:`STORAGE_KINDS`, or an explicit factory callable.

    Returns:
        The factory.
    """
    if storage is None:
        return storage_factory("memory")
    if isinstance(storage, str):
        return storage_factory(storage)
    if callable(storage):
        return storage
    raise StorageError(
        f"storage must be a kind name or factory, got {storage!r}"
    )


def probe_candidates(
    storage: RelationStorage, column: int, factors: tuple[str, ...]
) -> "frozenset[int] | None":
    """Intersect index candidate sets for required factors, if possible.

    The uniform prefilter entry point: backends without a
    ``candidates`` probe (or factors too short for the index) yield
    ``None``, which callers read as "no pruning available — enumerate".

    Args:
        storage: The relation's backend.
        column: The column the factors constrain.
        factors: Substrings every matching value must contain.

    Returns:
        The intersected candidate row-id set, or ``None``.
    """
    probe = getattr(storage, "candidates", None)
    if probe is None:
        return None
    result: frozenset[int] | None = None
    for factor in factors:
        found = probe(column, factor)
        if found is None:
            continue
        result = found if result is None else (result & found)
        if not result:
            break
    return result


__all__ = [
    "ArtifactReader",
    "ColumnStats",
    "DEFAULT_N",
    "EMPTY_STORAGE",
    "InMemoryStorage",
    "MAGIC",
    "NGramIndexStorage",
    "Relation",
    "RelationStats",
    "RelationStorage",
    "SLPStorage",
    "STORAGE_KINDS",
    "StorageFactory",
    "VERSION",
    "apply_storage_delta",
    "compute_stats",
    "is_storage",
    "probe_candidates",
    "resolve_storage_factory",
    "storage_factory",
]
