"""The n-gram index backend.

Every column of the relation gets an inverted index mapping each
``n``-gram to the sorted ids of the rows whose value holds it — the
simstring ``ngramdb_writer`` shape, specialized to one gram size, in
the one posting format :func:`repro.storage.artifact.build_postings`
builds.  The index supports one query:
:meth:`NGramIndexStorage.candidates` takes a required *factor* (a
substring every matching column value must contain, derived by the
planner from a selection machine's transition graph) and returns
exactly the row ids whose value contains it: the posting arrays of the
factor's distinct grams are intersected in C, and a factor longer than
``n`` is then confirmed by a substring test on each surviving row.

The index lives either fully in memory (:meth:`build`) or behind a
memory-mapped on-disk artifact (:meth:`open` / :meth:`ensure`) that
builds once and loads instantly across sessions and parallel workers;
artifact-backed instances pickle as just their path, so shipping a
database to a worker process costs bytes, not tuple sets.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from itertools import compress
from pathlib import Path

from repro.errors import ArityError, ArtifactError
from repro.storage import artifact as artifact_format
from repro.storage.base import RelationStats, compute_stats, derive_stats

#: The default gram size; 3 balances directory size against probe
#: selectivity on small (e.g. DNA) alphabets.
DEFAULT_N = 3


def _canonical(tuples: Iterable[tuple[str, ...]]) -> tuple[tuple[str, ...], ...]:
    rows = tuple(sorted({tuple(row) for row in tuples}))
    arities = {len(row) for row in rows}
    if len(arities) > 1:
        raise ArityError(f"storage mixes tuple arities {sorted(arities)}")
    return rows


class NGramIndexStorage:
    """A relation stored with an n-gram index per column.

    Construct via :meth:`build` (in memory), :meth:`open` (an existing
    artifact) or :meth:`ensure` (open-if-current, else build + write).

    >>> store = NGramIndexStorage.build([("gcgc",), ("aaaa",)], n=3)
    >>> sorted(store.candidates(0, "gcgc"))
    [1]
    >>> next(store.rows_for([1]))
    ('gcgc',)
    """

    def __init__(
        self,
        rows: tuple[tuple[str, ...], ...],
        n: int,
        arity: int,
        reader: "artifact_format.ArtifactReader | None" = None,
        stats: RelationStats | None = None,
        postings: list[dict[str, array]] | None = None,
        *,
        extra_rows: tuple[tuple[str, ...], ...] = (),
        extra_postings: list[dict[str, array]] | None = None,
        dead: frozenset[int] = frozenset(),
        base_sha: bytes | None = None,
        row_ids: dict[tuple[str, ...], int] | None = None,
    ) -> None:
        self._rows = rows
        self._n = n
        self._arity = arity
        self._reader = reader
        self._stats = stats
        self._postings = postings
        # -- delta-derivation state (empty on freshly built storages):
        # appended rows get ids after the base block, deleted ids are
        # tombstoned, and appended grams live in a posting layer merged
        # at probe time (see apply_delta).
        self._extra_rows = extra_rows
        self._extra_postings = extra_postings
        self._dead = dead
        self._base_sha = base_sha
        self._row_ids = row_ids
        self._verified = False
        self._row_cache: list[tuple[str, ...] | None] | None = None
        self._live: tuple[tuple[str, ...], ...] | None = None
        self._tuples: frozenset[tuple[str, ...]] | None = None
        self._columns: dict[int, tuple[str, ...]] = {}
        self._gram_cache: dict[tuple[int, str], array] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        tuples: Iterable[tuple[str, ...]],
        n: int = DEFAULT_N,
        arity: int | None = None,
    ) -> "NGramIndexStorage":
        """Build the index in memory from an iterable of tuples.

        Args:
            tuples: The relation's rows (deduplicated, sorted
                canonically so row ids are deterministic).
            n: The gram size.
            arity: Declared arity for an empty relation.

        Returns:
            The populated storage; records an ``index.build`` counter.
        """
        from repro.observability import current_tracer

        rows = _canonical(tuples)
        derived = len(rows[0]) if rows else (arity or 0)
        if rows and arity is not None and derived != arity:
            raise ArityError(
                f"declared arity {arity} does not match tuples of "
                f"arity {derived}"
            )
        tracer = current_tracer()
        with tracer.span("index.build", stage="index", rows=len(rows)):
            postings = artifact_format.build_postings(rows, n, derived)
        tracer.add("index.build")
        return cls(
            rows,
            n,
            derived,
            stats=compute_stats(rows, derived),
            postings=postings,
        )

    @classmethod
    def open(cls, path: "str | Path") -> "NGramIndexStorage":
        """Memory-map an existing artifact (validating its checksum).

        Args:
            path: The artifact file written by :meth:`write`.

        Returns:
            A lazily-decoding storage over the map.

        Raises:
            ArtifactError: If the file is absent, corrupt or has an
                incompatible version.
        """
        reader = artifact_format.ArtifactReader(path)
        return cls(
            (),
            reader.n,
            reader.arity,
            reader=reader,
            stats=reader.stats,
        )

    @classmethod
    def ensure(
        cls,
        path: "str | Path",
        tuples: Iterable[tuple[str, ...]],
        n: int = DEFAULT_N,
        arity: int | None = None,
    ) -> "NGramIndexStorage":
        """Open ``path`` if it already indexes exactly these tuples, else rebuild.

        The check compares content fingerprints (rows + gram size), so
        a stale or corrupt artifact is silently replaced; the build
        therefore happens once per (content, n) and every later session
        or worker just maps the file.

        Args:
            path: The artifact location.
            tuples: The relation's rows.
            n: The gram size.
            arity: Declared arity for an empty relation.

        Returns:
            An artifact-backed storage.
        """
        rows = _canonical(tuples)
        fingerprint = artifact_format.content_fingerprint(rows, n)
        try:
            opened = cls.open(path)
            if opened._reader is not None and (
                opened._reader.content_sha == fingerprint
            ):
                return opened
            opened._reader.close()
        except ArtifactError:
            pass
        built = cls.build(rows, n=n, arity=arity)
        built.write(path)
        return cls.open(path)

    def write(self, path: "str | Path") -> None:
        """Serialize this (in-memory) index to an artifact file.

        Args:
            path: The destination; written atomically.
        """
        rows = self._canonical_live()
        data = artifact_format.pack(rows, self._n, self.stats())
        artifact_format.write_artifact(path, data)

    # -- the storage protocol -------------------------------------------

    @property
    def n(self) -> int:
        """The gram size the index was built with."""
        return self._n

    @property
    def arity(self) -> int:
        """The relation's column count."""
        return self._arity

    @property
    def path(self) -> "Path | None":
        """The backing artifact path (``None`` for in-memory builds)."""
        return self._reader.path if self._reader is not None else None

    @property
    def tuples(self) -> frozenset[tuple[str, ...]]:
        """The relation as a frozenset (decoded once, then cached)."""
        if self._tuples is None:
            self._tuples = frozenset(self._live_rows())
        return self._tuples

    def scan(self) -> Iterator[tuple[str, ...]]:
        """Iterate tuples in row-id (canonical sorted, then append) order."""
        return iter(self._live_rows())

    def contains(self, row: tuple[str, ...]) -> bool:
        """Membership via the cached frozenset."""
        return row in self.tuples

    def column(self, index: int) -> tuple[str, ...]:
        """Sorted distinct values of column ``index``, cached."""
        if index not in self._columns:
            self._columns[index] = tuple(
                sorted({row[index] for row in self._live_rows()})
            )
        return self._columns[index]

    def size(self) -> int:
        """The tuple count (from the header for artifact-backed stores)."""
        if self._mutated:
            return (
                self._base_count() + len(self._extra_rows) - len(self._dead)
            )
        if self._reader is not None:
            return self._reader.row_count
        return len(self._rows)

    def stats(self) -> RelationStats:
        """Statistics — precomputed at build time, stored in the artifact.

        A derived version holds statistics derived from its parent's
        and the delta; only one whose parent's were never computed, or
        one of more than one column, makes a pass over its rows, on
        first request.
        """
        if self._stats is None:
            self._stats = compute_stats(self._live_rows(), self._arity)
        return self._stats

    # -- index probes ---------------------------------------------------

    def candidates(self, column: int, factor: str) -> frozenset[int] | None:
        """The ids of the live rows whose ``column`` value contains ``factor``.

        Exact for factors of at least ``n`` characters: the posting
        arrays of the factor's distinct grams are intersected rarest
        first, tombstones are subtracted, and when the factor is longer
        than ``n`` only the rows whose value contains it are kept.  A
        shorter factor returns ``None``, "cannot prefilter on this
        factor".

        Args:
            column: The column index to probe.
            factor: The required substring.

        Returns:
            The matching row-id set, or ``None`` when the factor is
            too short to probe.  Records an ``index.probe`` counter.
        """
        from repro.observability import current_tracer

        n = self._n
        if len(factor) < n:
            return None
        current_tracer().add("index.probe")
        rarest, *others = sorted(
            (
                self._gram_postings(column, gram)
                for gram in {
                    factor[start : start + n]
                    for start in range(len(factor) - n + 1)
                }
            ),
            key=len,
        )
        found = set(rarest)
        for ids in others:
            if not found:
                break
            found.intersection_update(ids)
        if self._dead:
            found -= self._dead
        if len(factor) > n:
            row = self._row
            found = {
                row_id for row_id in found if factor in row(row_id)[column]
            }
        return frozenset(found)

    def rows_for(self, row_ids: Iterable[int]) -> Iterator[tuple[str, ...]]:
        """Decode the tuples with the given row ids, in sorted id order.

        Args:
            row_ids: Candidate ids from :meth:`candidates`.

        Yields:
            The corresponding tuples.
        """
        for row_id in sorted(set(row_ids)):
            yield self._row(row_id)

    # -- internals ------------------------------------------------------

    @property
    def _mutated(self) -> bool:
        return bool(self._extra_rows) or bool(self._dead)

    def _base_count(self) -> int:
        if self._rows or self._reader is None:
            return len(self._rows)
        return self._reader.row_count

    def _live_rows(self) -> tuple[tuple[str, ...], ...]:
        """The live tuples: base (minus tombstones), then appends.

        A derived version filters its tombstones once, on first use,
        with one C-level :func:`~itertools.compress` over a mask that
        zeroes the dead ids.
        """
        if not self._mutated:
            return self._all_rows()
        if self._live is None:
            rows = self._all_rows() + self._extra_rows
            mask = bytearray(b"\x01") * len(rows)
            for row_id in self._dead:
                mask[row_id] = 0
            self._live = tuple(compress(rows, mask))
        return self._live

    def _canonical_live(self) -> tuple[tuple[str, ...], ...]:
        if not self._mutated:
            return self._all_rows()
        return tuple(sorted(self._live_rows()))

    def _verify_artifact(self) -> None:
        """Refuse to serve reader postings for a mutated, stale artifact.

        A mutated storage derived its base postings from the artifact
        content fingerprinted at derivation time; if the file has since
        been replaced (or removed), fall back to postings rebuilt from
        the decoded in-memory base rows so a probe can never reflect
        rows this version does not hold.
        """
        if self._verified or self._reader is None:
            return
        self._verified = True
        try:
            on_disk = artifact_format.read_content_sha(self._reader.path)
            stale = on_disk != self._base_sha
        except ArtifactError:
            stale = True
        if not stale:
            return
        from repro.observability import current_tracer

        current_tracer().add("index.stale_fallback")
        self._gram_cache.clear()
        self._postings = artifact_format.build_postings(
            self._rows, self._n, self._arity
        )

    def _gram_postings(self, column: int, gram: str) -> array:
        base = self._base_gram_postings(column, gram)
        if self._extra_postings is not None:
            extra = self._extra_postings[column].get(gram)
            if extra is not None:
                return base + extra
        return base

    def _base_gram_postings(self, column: int, gram: str) -> array:
        if self._mutated and self._postings is None:
            self._verify_artifact()
        if self._postings is not None:
            return self._postings[column].get(gram, artifact_format.NO_ROWS)
        key = (column, gram)
        if key not in self._gram_cache:
            self._gram_cache[key] = self._reader.postings(column, gram)
        return self._gram_cache[key]

    def _row(self, row_id: int) -> tuple[str, ...]:
        rows = self._rows
        if row_id < len(rows):
            return rows[row_id]
        base = self._base_count()
        if row_id >= base:
            return self._extra_rows[row_id - base]
        if self._row_cache is None:
            self._row_cache = [None] * self._reader.row_count
        cached = self._row_cache[row_id]
        if cached is None:
            cached = self._reader.row(row_id)
            self._row_cache[row_id] = cached
        return cached

    def _all_rows(self) -> tuple[tuple[str, ...], ...]:
        if self._reader is not None and not self._rows:
            self._rows = tuple(
                self._reader.row(row_id)
                for row_id in range(self._reader.row_count)
            )
        return self._rows

    def _shared_row_ids(self) -> dict[tuple[str, ...], int]:
        """The lineage-shared ``row -> id`` map, built on first mutation.

        The dict is shared with derived storages (children extend it),
        so a hit must always be validated against *this* instance's
        actual rows before being trusted — sibling derivations may have
        claimed the same appended ids for different rows.
        """
        if self._row_ids is None:
            mapping = {
                row: row_id for row_id, row in enumerate(self._all_rows())
            }
            base = self._base_count()
            for offset, row in enumerate(self._extra_rows):
                mapping[row] = base + offset
            self._row_ids = mapping
        return self._row_ids

    def _resolve_id(
        self,
        row_ids: dict[tuple[str, ...], int],
        row: tuple[str, ...],
        base: int,
        extra_rows: list[tuple[str, ...]],
    ) -> int | None:
        mapped = row_ids.get(row)
        if mapped is None:
            # The lineage map gains every appended row and loses none,
            # so a row it has never seen is in no appended block.
            return None
        if mapped < base:
            if self._rows[mapped] == row:
                return mapped
        elif (
            mapped - base < len(extra_rows)
            and extra_rows[mapped - base] == row
        ):
            return mapped
        # A sibling derivation remapped the row: look for it here.
        for offset, extra in enumerate(extra_rows):
            if extra == row:
                return base + offset
        return None

    def apply_delta(
        self,
        inserts: frozenset[tuple[str, ...]],
        deletes: frozenset[tuple[str, ...]],
    ) -> "NGramIndexStorage":
        """Derive a new storage with the delta applied, indexes maintained.

        Postings are maintained incrementally in memory: deletes
        tombstone row ids (filtered out of probe results), inserts
        append rows after the base id block, and each gram they hold
        gets their ids appended to an extra posting table merged at
        probe time — O(|Δ|·L) work, never a rebuild.  When this
        version's statistics are known, the derived version's are
        derived from them and the rows the delta changed
        (:func:`~repro.storage.base.derive_stats`).  On-disk
        artifacts are **not** rewritten; the derived storage remembers
        the content fingerprint its base postings came from and falls
        back to live in-memory postings if the file no longer matches
        (see :meth:`_verify_artifact`).

        Args:
            inserts: Rows to add (applied after the deletes).
            deletes: Rows to remove.

        Returns:
            The derived storage, or ``self`` for a no-op delta.

        Raises:
            ArityError: If an inserted row does not match the arity.
        """
        from repro.observability import current_tracer

        inserts = frozenset(tuple(row) for row in inserts)
        deletes = frozenset(tuple(row) for row in deletes) - inserts
        if not inserts and not deletes:
            return self
        if self._arity == 0 and self.size() == 0:
            if not inserts:
                return self
            return NGramIndexStorage.build(inserts, n=self._n)
        mismatched = {len(row) for row in inserts} - {self._arity}
        if mismatched:
            raise ArityError(
                f"delta inserts of arity {sorted(mismatched)} do not match "
                f"storage arity {self._arity}"
            )
        tracer = current_tracer()
        with tracer.span(
            "index.delta",
            stage="index",
            inserts=len(inserts),
            deletes=len(deletes),
        ):
            base_rows = self._all_rows()
            base = len(base_rows)
            row_ids = self._shared_row_ids()
            dead = set(self._dead)
            extra_rows = list(self._extra_rows)
            if self._extra_postings is not None:
                extra_postings = [
                    dict(column) for column in self._extra_postings
                ]
            else:
                extra_postings = [{} for _ in range(self._arity)]
            removed = []
            resurrected = []
            appended = []
            for row in sorted(deletes):
                row_id = self._resolve_id(row_ids, row, base, extra_rows)
                if row_id is not None and row_id not in dead:
                    dead.add(row_id)
                    removed.append(row)
            for row in sorted(inserts):
                row_id = self._resolve_id(row_ids, row, base, extra_rows)
                if row_id is not None:
                    if row_id in dead:
                        dead.discard(row_id)
                        resurrected.append(row)
                    continue
                row_ids[row] = base + len(extra_rows)
                extra_rows.append(row)
                appended.append(row)
            if not (removed or resurrected or appended):
                return self
            fresh = artifact_format.build_postings(
                appended,
                self._n,
                self._arity,
                first=base + len(extra_rows) - len(appended),
            )
            for layer, grams in zip(extra_postings, fresh):
                for gram, ids in grams.items():
                    held = layer.get(gram)
                    layer[gram] = ids if held is None else held + ids
        tracer.add("index.delta")
        base_sha = self._base_sha
        if base_sha is None and self._reader is not None:
            base_sha = self._reader.content_sha
        stats = None
        if self._stats is not None:
            stats = derive_stats(
                self._stats, resurrected + appended, removed
            )
        return NGramIndexStorage(
            base_rows,
            self._n,
            self._arity,
            reader=self._reader,
            stats=stats,
            postings=self._postings,
            extra_rows=tuple(extra_rows),
            extra_postings=extra_postings,
            dead=frozenset(dead),
            base_sha=base_sha,
            row_ids=row_ids,
        )

    def __reduce__(self):
        if self._mutated:
            return (_rebuild, (self._canonical_live(), self._n, self._arity))
        if self._reader is not None:
            return (NGramIndexStorage.open, (str(self._reader.path),))
        return (_rebuild, (self._rows, self._n, self._arity))

    def __repr__(self) -> str:
        backing = (
            f"artifact={self._reader.path}" if self._reader else "in-memory"
        )
        if self._mutated:
            backing += (
                f", +{len(self._extra_rows)} appended, "
                f"{len(self._dead)} tombstoned"
            )
        return (
            f"NGramIndexStorage({self.size()} rows, arity {self._arity}, "
            f"n={self._n}, {backing})"
        )


def _rebuild(
    rows: tuple[tuple[str, ...], ...], n: int, arity: int
) -> NGramIndexStorage:
    """Unpickle helper: rebuild an in-memory index from its rows."""
    return NGramIndexStorage.build(rows, n=n, arity=arity or None)
