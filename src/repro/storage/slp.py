"""The SLP-compressed relation backend (``--storage slp``).

Every cell of the relation is held as a straight-line program
(:mod:`repro.slp.grammar`), compressed once at build time with the
deterministic :func:`~repro.slp.grammar.compress` — so equal strings
share one interned grammar and *structural* identity coincides with
string equality.  That invariant is what lets the backend answer most
of the storage protocol without decompressing anything:

* :meth:`SLPStorage.contains` compresses the probe row and compares
  roots — no stored cell is expanded;
* :meth:`SLPStorage.stats` reads lengths and distinct counts off the
  grammars (``expanded_length`` is a field, not an expansion) and
  additionally reports each column's grammar size as
  ``stored_chars``, which the cost model prices compressed scans by;
* :meth:`SLPStorage.candidates` answers n-gram prefilter probes from
  grammar-extracted factor sets (:meth:`~repro.slp.grammar.SLP.grams`
  — ``O(rules · n)`` per distinct cell, never an expansion);
* :meth:`SLPStorage.apply_delta` matches deletes and inserts
  structurally.

Only the enumeration surfaces — :meth:`scan` / :attr:`tuples` /
:meth:`column` / :meth:`rows_for` — expand cells, lazily and with a
per-row cache, because the evaluation engines consume plain strings:
engine reads never hand a compressed cell to a kernel.  Under a
prefilter-carrying plan only candidate rows are ever decoded.  The
grammar fold of the scan kernel
(:class:`~repro.fsa.determinize.DeterministicKernel`) accepts SLP
cells directly, for callers that hold grammars themselves.

The prefilter is *superset-sound* like the n-gram index: a candidate
set may include false positives (gram-set containment ignores factor
gram adjacency), and the planner re-checks every surviving row
against the acceptance kernel — answers can never change, only the
number of rows scanned.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import ArityError
from repro.slp.grammar import SLP, compress
from repro.storage.base import ColumnStats, RelationStats
from repro.storage.ngram import DEFAULT_N


class SLPStorage:
    """A relation stored as SLP-compressed cells with gram prefilters.

    Construct via :meth:`build` (compressing plain tuples) or
    :meth:`from_cells` (adopting pre-built grammars — the entry point
    for scale workloads whose expansions must never materialize).

    >>> store = SLPStorage.build([("gcgcgcgc",), ("aaaaaaaa",)], n=3)
    >>> store.size(), store.arity
    (2, 1)
    >>> sorted(store.candidates(0, "gcgc"))
    [1]
    >>> next(store.rows_for([1]))
    ('gcgcgcgc',)
    >>> store.contains(("aaaaaaaa",))
    True
    """

    __slots__ = (
        "_rows",
        "_row_set",
        "_arity",
        "_n",
        "_stats",
        "_columns",
        "_decoded",
        "_tuples",
        "_indexes",
    )

    def __init__(
        self,
        rows: tuple[tuple[SLP, ...], ...],
        n: int,
        arity: int,
    ) -> None:
        self._rows = rows
        self._row_set = frozenset(rows)
        self._n = n
        self._arity = arity
        self._stats: RelationStats | None = None
        self._columns: dict[int, tuple[str, ...]] = {}
        self._decoded: list[tuple[str, ...] | None] = [None] * len(rows)
        self._tuples: frozenset[tuple[str, ...]] | None = None
        # column -> {gram -> frozenset of row ids}, built on first probe.
        self._indexes: dict[int, dict[str, frozenset[int]]] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        tuples: Iterable[tuple[str, ...]],
        n: int = DEFAULT_N,
        arity: int | None = None,
    ) -> "SLPStorage":
        """Compress plain tuples into a storage.

        Rows are deduplicated and sorted canonically (like the n-gram
        backend) so row ids are deterministic; each distinct string is
        compressed once.  Records a ``slp.build`` counter with the
        cell count compressed.

        Args:
            tuples: The relation's rows, as plain strings.
            n: The gram size for prefilter probes.
            arity: Declared arity for an empty relation.

        Returns:
            The populated storage.
        """
        from repro.observability import current_tracer

        rows = tuple(sorted({tuple(row) for row in tuples}))
        arities = {len(row) for row in rows}
        if len(arities) > 1:
            raise ArityError(
                f"storage mixes tuple arities {sorted(arities)}"
            )
        derived = len(rows[0]) if rows else (arity or 0)
        if rows and arity is not None and derived != arity:
            raise ArityError(
                f"declared arity {arity} does not match tuples of "
                f"arity {derived}"
            )
        tracer = current_tracer()
        with tracer.span("slp.build", stage="index", rows=len(rows)):
            cache: dict[str, SLP] = {}
            compressed = []
            for row in rows:
                cells = []
                for value in row:
                    cell = cache.get(value)
                    if cell is None:
                        cell = cache[value] = compress(value)
                    cells.append(cell)
                compressed.append(tuple(cells))
        tracer.add("slp.build", len(cache))
        storage = cls(tuple(compressed), n, derived)
        # The originals are in hand — seed the decode cache for free.
        storage._decoded = list(rows)
        return storage

    @classmethod
    def from_cells(
        cls,
        rows: Iterable[tuple[SLP, ...]],
        n: int = DEFAULT_N,
        arity: int | None = None,
    ) -> "SLPStorage":
        """Adopt pre-built compressed rows (no expansion, no re-compress).

        The caller vouches that equal cells are structurally identical
        (true for anything built through :func:`~repro.slp.grammar
        .compress` or shared grammar nodes); rows are deduplicated
        structurally and ordered deterministically by their canonical
        rule lists.

        Args:
            rows: The relation's rows, as SLP cells.
            n: The gram size for prefilter probes.
            arity: Declared arity for an empty relation.

        Returns:
            The populated storage.
        """
        unique = {tuple(row) for row in rows}
        arities = {len(row) for row in unique}
        if len(arities) > 1:
            raise ArityError(
                f"storage mixes tuple arities {sorted(arities)}"
            )
        derived = arities.pop() if arities else (arity or 0)
        ordered = tuple(sorted(unique, key=_row_key))
        return cls(ordered, n, derived)

    # -- the storage protocol -------------------------------------------

    @property
    def n(self) -> int:
        """The gram size prefilter probes answer at."""
        return self._n

    @property
    def arity(self) -> int:
        """The relation's column count."""
        return self._arity

    @property
    def tuples(self) -> frozenset[tuple[str, ...]]:
        """The relation as a frozenset of *expanded* rows (cached)."""
        if self._tuples is None:
            self._tuples = frozenset(self.scan())
        return self._tuples

    def scan(self) -> Iterator[tuple[str, ...]]:
        """Iterate expanded tuples in row-id order (decoded lazily)."""
        for row_id in range(len(self._rows)):
            yield self._decode(row_id)

    def contains(self, row: tuple[str, ...]) -> bool:
        """Structural membership — compresses the probe, expands nothing."""
        try:
            probe = tuple(compress(value) for value in row)
        except TypeError:
            return False
        return probe in self._row_set

    def column(self, index: int) -> tuple[str, ...]:
        """Sorted distinct expanded values of column ``index``, cached."""
        if index not in self._columns:
            distinct = {row[index] for row in self._rows}
            self._columns[index] = tuple(
                sorted(cell.expand() for cell in distinct)
            )
        return self._columns[index]

    def size(self) -> int:
        """The tuple count."""
        return len(self._rows)

    def stats(self) -> RelationStats:
        """Statistics read off the grammars — no cell is expanded.

        Distinct counts are structural (≡ string distinct, because
        :func:`~repro.slp.grammar.compress` is canonical), lengths
        come from :meth:`~repro.slp.grammar.SLP.expanded_length`, and
        each column additionally reports its total grammar size as
        ``stored_chars`` — the compressed-scan price the cost model
        discounts by.
        """
        if self._stats is None:
            arity = self._arity
            distinct: list[set[SLP]] = [set() for _ in range(arity)]
            histograms: list[dict[int, int]] = [{} for _ in range(arity)]
            totals = [0] * arity
            stored = [0] * arity
            for row in self._rows:
                for index, cell in enumerate(row):
                    distinct[index].add(cell)
                    length = cell.expanded_length()
                    totals[index] += length
                    stored[index] += cell.stored_size()
                    histogram = histograms[index]
                    histogram[length] = histogram.get(length, 0) + 1
            self._stats = RelationStats(
                rows=len(self._rows),
                arity=arity,
                columns=tuple(
                    ColumnStats(
                        distinct=len(distinct[index]),
                        total_chars=totals[index],
                        min_length=min(histograms[index], default=0),
                        max_length=max(histograms[index], default=0),
                        length_histogram=tuple(
                            sorted(histograms[index].items())
                        ),
                        stored_chars=stored[index],
                    )
                    for index in range(arity)
                ),
            )
        return self._stats

    # -- prefilter probes ------------------------------------------------

    def candidates(self, column: int, factor: str) -> frozenset[int] | None:
        """Row ids whose ``column`` value *may* contain ``factor``.

        Superset-sound: every row whose value contains the factor is
        returned (its grams are a subset of the cell's gram set);
        extra rows may ride along and are rejected by the planner's
        kernel re-check.  Factors shorter than the gram size yield
        ``None`` ("cannot prefilter"), exactly like the n-gram index.
        Records an ``slp.probe`` counter.

        Args:
            column: The column index to probe.
            factor: The required substring.

        Returns:
            The candidate row-id set, or ``None``.
        """
        from repro.observability import current_tracer

        if len(factor) < self._n:
            return None
        current_tracer().add("slp.probe")
        index = self._gram_index(column)
        result: frozenset[int] | None = None
        for start in range(len(factor) - self._n + 1):
            found = index.get(factor[start : start + self._n], frozenset())
            result = found if result is None else (result & found)
            if not result:
                break
        return result if result is not None else frozenset()

    def rows_for(self, row_ids: Iterable[int]) -> Iterator[tuple[str, ...]]:
        """Decode the tuples with the given row ids, in sorted id order.

        Only these rows are ever expanded on a prefiltered scan — the
        pruned remainder stays compressed.

        Args:
            row_ids: Candidate ids from :meth:`candidates`.

        Yields:
            The corresponding expanded tuples.
        """
        for row_id in sorted(set(row_ids)):
            yield self._decode(row_id)

    # -- derivation ------------------------------------------------------

    def apply_delta(
        self,
        inserts: frozenset[tuple[str, ...]],
        deletes: frozenset[tuple[str, ...]],
    ) -> "SLPStorage":
        """Derive a new storage with the delta applied, structurally.

        Delta rows are compressed and matched against the stored
        grammars by identity — stored cells are never expanded.  Runs
        in O(|Δ| · cell length) compression plus set operations.

        Args:
            inserts: Rows to add (applied after the deletes).
            deletes: Rows to remove.

        Returns:
            The derived storage, or ``self`` for a no-op delta.

        Raises:
            ArityError: If an inserted row does not match the arity.
        """
        inserts = frozenset(tuple(row) for row in inserts)
        deletes = frozenset(tuple(row) for row in deletes) - inserts
        if not inserts and not deletes:
            return self
        if self._arity == 0 and not self._rows:
            if not inserts:
                return self
            return SLPStorage.build(inserts, n=self._n)
        mismatched = {len(row) for row in inserts} - {self._arity}
        if mismatched:
            raise ArityError(
                f"delta inserts of arity {sorted(mismatched)} do not match "
                f"storage arity {self._arity}"
            )
        removed = {
            tuple(compress(value) for value in row) for row in deletes
        }
        added = {
            tuple(compress(value) for value in row) for row in inserts
        }
        updated = (set(self._rows) - removed) | added
        if updated == set(self._rows):
            return self
        return SLPStorage.from_cells(updated, n=self._n, arity=self._arity)

    # -- internals ------------------------------------------------------

    def _decode(self, row_id: int) -> tuple[str, ...]:
        cached = self._decoded[row_id]
        if cached is None:
            cached = tuple(cell.expand() for cell in self._rows[row_id])
            self._decoded[row_id] = cached
        return cached

    def _gram_index(self, column: int) -> dict[str, frozenset[int]]:
        """The inverted gram → row-id map of one column, built lazily.

        Grams come from each distinct cell's grammar
        (:meth:`~repro.slp.grammar.SLP.grams`) — ``O(rules · n)`` per
        cell, shared across rows holding the same cell.  Records an
        ``slp.index.build`` counter on first construction.
        """
        cached = self._indexes.get(column)
        if cached is not None:
            return cached
        from repro.observability import current_tracer

        cell_grams: dict[SLP, frozenset[str]] = {}
        postings: dict[str, set[int]] = {}
        for row_id, row in enumerate(self._rows):
            cell = row[column]
            grams = cell_grams.get(cell)
            if grams is None:
                grams = cell_grams[cell] = cell.grams(self._n)
            for gram in grams:
                postings.setdefault(gram, set()).add(row_id)
        index = {gram: frozenset(ids) for gram, ids in postings.items()}
        self._indexes[column] = index
        current_tracer().add("slp.index.build")
        return index

    def __reduce__(self):
        return (_restore, (self._rows, self._n, self._arity))

    def __repr__(self) -> str:
        stats = self.stats()
        total = sum(column.total_chars for column in stats.columns)
        stored = sum(
            column.effective_stored_chars for column in stats.columns
        )
        return (
            f"SLPStorage({self.size()} rows, arity {self._arity}, "
            f"n={self._n}, {total} chars in {stored} rules)"
        )


def _row_key(row: tuple[SLP, ...]) -> tuple:
    """A deterministic sort key over compressed rows.

    Orders by each cell's canonical rule list, with terminal and pair
    rules tagged so the mixed-type entries stay comparable — a pure
    function of the derived strings (``compress`` is canonical), never
    of interning history.
    """
    return tuple(
        tuple(
            (0, rule) if isinstance(rule, str) else (1, *rule)
            for rule in cell.rules()
        )
        for cell in row
    )


def _restore(
    rows: tuple[tuple[SLP, ...], ...], n: int, arity: int
) -> SLPStorage:
    """Unpickle helper: cells re-intern via their own reduction."""
    return SLPStorage(rows, n, arity)


__all__ = ["SLPStorage"]
