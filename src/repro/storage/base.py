"""The relation-storage protocol, per-column statistics and the default backend.

The paper treats a database as a total map from relation symbols to
finite subsets of ``(Σ*)^a`` (Section 2); *how* those finite sets are
held is an implementation degree of freedom the calculus never
constrains.  This module pins that degree of freedom down as a small
protocol — :class:`RelationStorage` — so the same engines can run over
a frozenset in memory (:class:`InMemoryStorage`) or over an on-disk
n-gram index (:class:`repro.storage.ngram.NGramIndexStorage`)
without changing a line of evaluation code.

The protocol also standardizes *statistics*: every backend reports a
:class:`RelationStats` with per-column distinct counts, lengths,
character totals and length histograms.  The cost model prices rows,
distinct counts, longest lengths and character totals; the whole
record, histograms included, is the plan cache's statistics stamp.
A version derived by a delta takes its record from its parent's and
the rows the delta changed (:func:`derive_stats`), not from a pass
over its rows.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import ArityError


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column of a stored relation.

    All fields are plain integers or tuples, so the object is hashable
    and can ride inside cost-model signatures and plan cache stamps.
    """

    #: Number of distinct strings in the column.
    distinct: int
    #: Total character count over all (non-distinct) column values.
    total_chars: int
    #: Shortest string length in the column (0 for an empty relation).
    min_length: int
    #: Longest string length in the column (0 for an empty relation).
    max_length: int
    #: Sorted ``(length, count)`` pairs over the column's values.
    length_histogram: tuple[tuple[int, int], ...]
    #: Stored size of the column in backend units (grammar rules for
    #: SLP-compressed columns); ``-1`` means "same as ``total_chars``"
    #: — the uncompressed default, so plain backends and old artifacts
    #: keep their statistics (and plan-cache signatures) unchanged.
    stored_chars: int = -1

    @property
    def mean_length(self) -> float:
        """The average value length (0.0 for an empty column)."""
        total = sum(count for _, count in self.length_histogram)
        return self.total_chars / total if total else 0.0

    @property
    def effective_stored_chars(self) -> int:
        """``stored_chars`` with the ``-1`` default resolved."""
        return self.stored_chars if self.stored_chars >= 0 else self.total_chars


@dataclass(frozen=True)
class RelationStats:
    """Statistics for a whole stored relation: rows plus per-column stats."""

    #: Number of tuples in the relation.
    rows: int
    #: Number of columns per tuple.
    arity: int
    #: One :class:`ColumnStats` per column, in column order.
    columns: tuple[ColumnStats, ...]


def compute_stats(
    rows: Iterable[tuple[str, ...]], arity: int
) -> RelationStats:
    """Compute :class:`RelationStats` by one pass over ``rows``.

    Args:
        rows: The relation's tuples.
        arity: The relation's column count.

    Returns:
        The populated statistics value.
    """
    distinct: list[set[str]] = [set() for _ in range(arity)]
    histograms: list[dict[int, int]] = [{} for _ in range(arity)]
    totals = [0] * arity
    count = 0
    for row in rows:
        count += 1
        for column, value in enumerate(row):
            distinct[column].add(value)
            length = len(value)
            totals[column] += length
            histogram = histograms[column]
            histogram[length] = histogram.get(length, 0) + 1
    columns = tuple(
        ColumnStats(
            distinct=len(distinct[column]),
            total_chars=totals[column],
            min_length=min(histograms[column], default=0),
            max_length=max(histograms[column], default=0),
            length_histogram=tuple(sorted(histograms[column].items())),
        )
        for column in range(arity)
    )
    return RelationStats(rows=count, arity=arity, columns=columns)


def derive_stats(
    parent: RelationStats,
    added: Collection[tuple[str, ...]],
    removed: Collection[tuple[str, ...]],
) -> RelationStats | None:
    """The statistics of ``(R | added) − removed`` from ``R``'s record.

    ``added`` must be disjoint from ``R`` and ``removed`` inside it,
    both of ``R``'s arity: exactly the rows a delta changed.  Rows,
    character totals, length histograms and min/max lengths follow by
    arithmetic in O(|Δ|).  In a relation of at most one column every
    row is a distinct value, so ``distinct`` equals ``rows``; a wider
    relation's distinct counts would need per-value counts, so it gets
    ``None`` and its backend keeps the one-pass :func:`compute_stats`
    on first request.

    Args:
        parent: The statistics of ``R``.
        added: The rows the delta adds.
        removed: The rows the delta removes.

    Returns:
        What :func:`compute_stats` returns over the new rows, or
        ``None`` for a relation of more than one column.
    """
    if parent.arity > 1:
        return None
    rows = parent.rows + len(added) - len(removed)
    columns = []
    for column, stats in enumerate(parent.columns):
        histogram = dict(stats.length_histogram)
        total = stats.total_chars
        for row in added:
            length = len(row[column])
            histogram[length] = histogram.get(length, 0) + 1
            total += length
        for row in removed:
            length = len(row[column])
            histogram[length] -= 1
            if not histogram[length]:
                del histogram[length]
            total -= length
        columns.append(
            ColumnStats(
                distinct=rows,
                total_chars=total,
                min_length=min(histogram, default=0),
                max_length=max(histogram, default=0),
                length_histogram=tuple(sorted(histogram.items())),
            )
        )
    return RelationStats(rows=rows, arity=parent.arity, columns=tuple(columns))


@runtime_checkable
class RelationStorage(Protocol):
    """What every relation backend must provide.

    Backends are immutable once constructed; engines may cache their
    observations freely.  ``arity`` and ``tuples`` are properties,
    everything else is a method.  Index-backed storages may additionally
    offer :meth:`candidates`-style prefilter probes — those are optional
    and engines must degrade gracefully when they are absent (see
    :func:`repro.storage.probe_candidates`).

    Mutation is a *derivation*, not an update: backends may offer an
    optional ``apply_delta(inserts, deletes)`` returning a **new**
    storage holding ``(tuples - deletes) | inserts``, leaving the
    receiver untouched.  :func:`apply_storage_delta`, which
    :meth:`repro.core.database.Database.apply` calls, uses the hook
    when present and derives an :class:`InMemoryStorage` otherwise.
    """

    @property
    def arity(self) -> int:
        """The relation's column count."""
        ...

    @property
    def tuples(self) -> frozenset[tuple[str, ...]]:
        """The relation as a frozenset (the historical representation)."""
        ...

    def scan(self) -> Iterator[tuple[str, ...]]:
        """Iterate over every tuple, in backend-chosen order."""
        ...

    def contains(self, row: tuple[str, ...]) -> bool:
        """Membership test ``row ∈ R``."""
        ...

    def column(self, index: int) -> tuple[str, ...]:
        """The sorted distinct values of column ``index``."""
        ...

    def size(self) -> int:
        """The number of tuples."""
        ...

    def stats(self) -> RelationStats:
        """Per-column statistics for the cost model."""
        ...


def is_storage(value: object) -> bool:
    """Whether ``value`` duck-types as a :class:`RelationStorage`.

    Used by :class:`repro.core.database.Database` to tell adopted
    (pre-validated) storages apart from raw tuple iterables; checked
    structurally so third-party backends need not inherit anything.
    """
    return all(
        hasattr(value, attribute)
        for attribute in ("scan", "contains", "column", "size", "stats")
    )


def _one_arity(arities: set[int], declared: int | None) -> int:
    """The one arity of rows whose lengths are ``arities``.

    Args:
        arities: The distinct row lengths (empty for no rows).
        declared: The arity the rows must have, if any; it is also the
            result when there are no rows.

    Raises:
        ArityError: If the rows mix arities or contradict ``declared``.
    """
    if len(arities) > 1:
        raise ArityError(f"storage mixes tuple arities {sorted(arities)}")
    if not arities:
        return declared or 0
    (derived,) = arities
    if declared is not None and derived != declared:
        raise ArityError(
            f"declared arity {declared} does not match tuples of arity {derived}"
        )
    return derived


class InMemoryStorage:
    """The default backend: a frozenset of tuples, everything eager.

    Matches the representation every prior release used internally, so
    it is also the reference implementation the differential tests hold
    other backends to.

    >>> store = InMemoryStorage([("ab", "b"), ("a", "b")])
    >>> store.size(), store.arity, store.column(1)
    (2, 2, ('b',))
    """

    __slots__ = ("_tuples", "_arity", "_stats", "_columns")

    def __init__(
        self,
        tuples: Iterable[tuple[str, ...]],
        arity: int | None = None,
    ) -> None:
        frozen = frozenset(tuple(row) for row in tuples)
        self._adopt(frozen, _one_arity({len(row) for row in frozen}, arity))

    def _adopt(
        self,
        tuples: frozenset[tuple[str, ...]],
        arity: int,
        stats: RelationStats | None = None,
    ) -> None:
        self._tuples = tuples
        self._arity = arity
        self._stats = stats
        self._columns: dict[int, tuple[str, ...]] = {}

    @classmethod
    def _trusted(
        cls,
        tuples: frozenset[tuple[str, ...]],
        arity: int,
        stats: RelationStats | None = None,
    ) -> "InMemoryStorage":
        """A storage over rows already known to have ``arity``.

        The private constructor path of derived versions: it holds
        ``tuples`` (and ``stats``, when known) as given and makes no
        per-row pass.
        """
        store = cls.__new__(cls)
        store._adopt(tuples, arity, stats)
        return store

    @property
    def arity(self) -> int:
        """The relation's column count (declared, for empty relations)."""
        return self._arity

    @property
    def tuples(self) -> frozenset[tuple[str, ...]]:
        """The underlying frozenset itself — no copy."""
        return self._tuples

    def scan(self) -> Iterator[tuple[str, ...]]:
        """Iterate the tuples (set order; callers must not rely on it)."""
        return iter(self._tuples)

    def contains(self, row: tuple[str, ...]) -> bool:
        """O(1) membership via the frozenset."""
        return row in self._tuples

    def column(self, index: int) -> tuple[str, ...]:
        """Sorted distinct values of column ``index``, cached."""
        if index not in self._columns:
            self._columns[index] = tuple(
                sorted({row[index] for row in self._tuples})
            )
        return self._columns[index]

    def size(self) -> int:
        """The tuple count."""
        return len(self._tuples)

    def stats(self) -> RelationStats:
        """Statistics computed on first request and cached."""
        if self._stats is None:
            self._stats = compute_stats(self._tuples, self._arity)
        return self._stats

    def apply_delta(
        self,
        inserts: frozenset[tuple[str, ...]],
        deletes: frozenset[tuple[str, ...]],
    ) -> "InMemoryStorage":
        """Derive a new storage with ``deletes`` removed, ``inserts`` added.

        Validates only the delta: the inserted rows' arity is checked
        against the rows that stay, with the constructor's errors.
        Whether anything changes is decided in O(|Δ|) from
        ``removed = (deletes − inserts) ∩ R`` and ``added = inserts − R``;
        the successor ``(R | added) − removed`` then costs one C-level
        copy of ``R``'s frozenset and no Python pass over its rows.  The
        receiver is untouched.  When the receiver's statistics are
        known, the successor's are derived from them and the delta
        (:func:`derive_stats`); otherwise, for a relation of more than
        one column, or when the arity changes (the successor then holds
        only ``added``), it computes them on first request.  Columns
        are always computed on first request.

        Args:
            inserts: Rows to add (applied after the deletes).
            deletes: Rows to remove.

        Returns:
            The derived storage, or ``self`` when the delta is a no-op
            on this relation's contents.

        Raises:
            ArityError: If the resulting rows would mix arities or
                contradict this relation's declared arity.
        """
        tuples = self._tuples
        inserted = frozenset(tuple(row) for row in inserts)
        added = inserted - tuples
        removed = (deletes - inserted) & tuples
        if not added and not removed:
            return self
        arities = {len(row) for row in added}
        if len(removed) < len(tuples):
            arities.add(self._arity)
        arity = _one_arity(arities, self._arity or None)
        # ``added`` is disjoint from R and ``removed`` lies inside it, so
        # toggling both in R yields ``(R | added) - removed``; CPython's
        # ``^`` copies its right operand, one C-level copy of R.
        updated = (added | removed) ^ tuples
        stats = None
        if self._stats is not None and arity == self._arity:
            stats = derive_stats(self._stats, added, removed)
        return InMemoryStorage._trusted(updated, arity, stats)

    def __reduce__(self):
        return (InMemoryStorage, (self._tuples, self._arity))

    def __repr__(self) -> str:
        return f"InMemoryStorage({len(self._tuples)} rows, arity {self._arity})"


def apply_storage_delta(
    storage: RelationStorage,
    inserts: frozenset[tuple[str, ...]],
    deletes: frozenset[tuple[str, ...]],
) -> RelationStorage:
    """Derive ``(tuples − deletes) | inserts`` from any backend.

    A backend's own ``apply_delta`` hook answers when it has one.  Any
    other storage is read as an :class:`InMemoryStorage` over its
    ``tuples`` — trusted, as :class:`~repro.core.database.Database`
    trusts every storage it adopts — and derived in memory, so the
    deletes-then-inserts step has one implementation.

    Args:
        storage: The relation's current backend.
        inserts: Rows to add (applied after the deletes).
        deletes: Rows to remove.

    Returns:
        The derived storage, or ``storage`` itself when the delta is a
        no-op on its contents.

    Raises:
        ArityError: If the resulting rows would mix arities or
            contradict the relation's declared arity.
    """
    hook = getattr(storage, "apply_delta", None)
    if hook is not None:
        return hook(inserts, deletes)
    view = InMemoryStorage._trusted(frozenset(storage.tuples), storage.arity)
    updated = view.apply_delta(inserts, deletes)
    return storage if updated is view else updated


#: The storage every unknown relation symbol denotes: empty, arity 0.
EMPTY_STORAGE = InMemoryStorage(frozenset())


class Relation:
    """A read-only view of one named relation behind a storage.

    This is what :meth:`repro.core.database.Database.relation` returns.
    It behaves like the frozenset it used to be — iterable, sized,
    supports ``in``, compares and hashes equal to the corresponding
    frozenset — while exposing the storage protocol's extras
    (:meth:`column`, :meth:`stats`, :attr:`storage`).

    >>> view = Relation("R", InMemoryStorage([("a",), ("b",)]))
    >>> len(view), ("a",) in view, view == {("a",), ("b",)}
    (2, True, True)
    """

    __slots__ = ("_name", "_storage")

    def __init__(self, name: str, storage: RelationStorage) -> None:
        self._name = name
        self._storage = storage

    @property
    def name(self) -> str:
        """The relation symbol this view is bound to."""
        return self._name

    @property
    def storage(self) -> RelationStorage:
        """The backend holding the tuples."""
        return self._storage

    @property
    def arity(self) -> int:
        """The relation's column count."""
        return self._storage.arity

    @property
    def tuples(self) -> frozenset[tuple[str, ...]]:
        """The relation as a plain frozenset (the back-compat surface)."""
        return self._storage.tuples

    def column(self, index: int) -> tuple[str, ...]:
        """The sorted distinct values of column ``index``."""
        return self._storage.column(index)

    def stats(self) -> RelationStats:
        """The backend's per-column statistics."""
        return self._storage.stats()

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return self._storage.scan()

    def __len__(self) -> int:
        return self._storage.size()

    def __contains__(self, row: object) -> bool:
        return isinstance(row, tuple) and self._storage.contains(row)

    def __bool__(self) -> bool:
        return self._storage.size() > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return self.tuples == other.tuples
        if isinstance(other, (set, frozenset)):
            return self.tuples == other
        return NotImplemented

    def __hash__(self) -> int:
        # Interchangeable with the frozenset it stands for, so views
        # can live in sets / dict keys alongside raw frozensets.
        return hash(self.tuples)

    def __repr__(self) -> str:
        return (
            f"Relation({self._name!r}, {self._storage.size()} rows, "
            f"arity {self._storage.arity})"
        )
