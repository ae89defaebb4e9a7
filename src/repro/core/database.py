"""String databases.

A database (paper, Section 2) maps each relation symbol ``R_i`` of
arity ``a(R_i)`` to a *finite* subset of ``(Σ*)^{a(R_i)}``: every
column of every tuple holds a finite string over the fixed alphabet.

How each finite set is physically held is delegated to the
:mod:`repro.storage` protocol: the constructor validates raw tuple
iterables and hands them to a *storage factory* (in-memory frozensets
by default, n-gram indexes via ``storage="ngram"`` or
:func:`repro.storage.storage_factory`), while already-constructed
storages are adopted as-is — which is what makes functional updates
O(changed relation).  :meth:`relation` returns a
:class:`~repro.storage.base.Relation` view that iterates, sizes,
membership-tests and compares like the frozenset it used to be.

Databases stay immutable under *updates* too: :meth:`Database.apply`
takes a :class:`~repro.delta.Delta` and returns a **new** version
sharing every untouched storage, with per-relation monotone version
counters (:meth:`relation_version`) and a shared :attr:`lineage` id
that let the engine's caches and materialized answers tell database
states apart cheaply.  Equality and hashing remain content-based —
two equal-content databases from different lineages still compare
equal.
"""

from __future__ import annotations

import itertools
import json
import os
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

from repro.core.alphabet import Alphabet
from repro.errors import ArityError, AlphabetError
from repro.storage import (
    EMPTY_STORAGE,
    InMemoryStorage,
    Relation,
    RelationStorage,
    StorageFactory,
    apply_storage_delta,
    is_storage,
    resolve_storage_factory,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delta import Delta

#: Sentinel distinguishing "no default given" in :meth:`Database.arity`.
_MISSING = object()

#: Process-wide lineage ids: databases related by :meth:`Database.apply`
#: share one lineage, every other construction starts a fresh one.
#: ``next`` on an ``itertools.count`` is a single C call, so handing
#: out ids is atomic under the GIL.
_LINEAGES = itertools.count(1)

#: Process-wide monotone version ticks.  Every relation touched by an
#: ``apply`` gets the next tick as its new version, so versions are
#: strictly increasing along (and unique across) every lineage.
_VERSION_TICKS = itertools.count(1)


class Database:
    """An immutable string database.

    >>> from repro.core.alphabet import AB
    >>> db = Database(AB, {"R1": [("ab", "ba")], "R2": [("a",), ("bb",)]})
    >>> db.arity("R1"), len(db.relation("R2"))
    (2, 2)
    """

    __slots__ = ("_alphabet", "_relations", "_hash", "_versions", "_lineage")

    def __init__(
        self,
        alphabet: Alphabet,
        relations: "Mapping[str, Iterable[tuple[str, ...]] | RelationStorage]",
        storage: "str | StorageFactory | None" = None,
        *,
        versions: "Mapping[str, int] | None" = None,
        lineage: int | None = None,
    ) -> None:
        factory = resolve_storage_factory(storage)
        self._alphabet = alphabet
        self._relations: dict[str, RelationStorage] = {}
        self._hash: int | None = None
        self._versions: dict[str, int] = dict(versions) if versions else {}
        self._lineage = lineage if lineage is not None else next(_LINEAGES)
        for name, value in relations.items():
            if is_storage(value):
                # Adopted storages are pre-validated — the O(changed
                # relation) path with_relation/declare rely on.
                self._relations[name] = value
            else:
                frozen = frozenset(tuple(t) for t in value)
                self._check_relation(name, frozen)
                self._relations[name] = factory(name, frozen, alphabet)

    def _check_relation(
        self, name: str, tuples: frozenset[tuple[str, ...]]
    ) -> int:
        arities = {len(t) for t in tuples}
        if len(arities) > 1:
            raise ArityError(
                f"relation {name!r} mixes tuple arities {sorted(arities)}"
            )
        for row in tuples:
            for value in row:
                if not isinstance(value, str):
                    raise AlphabetError(
                        f"relation {name!r} holds non-string value {value!r}"
                    )
                self._alphabet.validate_string(value)
        return arities.pop() if arities else 0

    # -- observation ----------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        """The fixed alphabet every stored string is drawn from."""
        return self._alphabet

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Relation symbols with an assigned value, sorted."""
        return tuple(sorted(self._relations))

    def relation(self, name: str) -> Relation:
        """The finite relation assigned to ``name``, as a view.

        Unknown symbols denote the empty relation, mirroring the paper
        where ``db`` is total on the infinite supply of symbols.  The
        returned :class:`~repro.storage.base.Relation` iterates, sizes
        and compares like a frozenset; use its ``.tuples`` property
        when an actual frozenset is required.
        """
        return Relation(name, self._relations.get(name, EMPTY_STORAGE))

    def storage(self, name: str) -> RelationStorage:
        """The raw storage backend behind ``name`` (empty when unknown)."""
        return self._relations.get(name, EMPTY_STORAGE)

    def arity(self, name: str, default: object = _MISSING) -> int:
        """Arity of ``name``; raises for symbols never mentioned.

        Args:
            name: The relation symbol.
            default: When given, returned instead of raising for
                unknown symbols — so planners can cost queries over
                undeclared relations without try/except.

        Returns:
            The relation's column count (or ``default``).

        Raises:
            ArityError: For unknown symbols when no default is given.
        """
        found = self._relations.get(name)
        if found is not None:
            return found.arity
        if default is not _MISSING:
            return default
        raise ArityError(
            f"relation {name!r} has no tuples and no known arity"
        )

    def declare(self, name: str, arity: int) -> "Database":
        """Functionally declare ``name`` with an explicit arity.

        Returns a database where ``name`` exists (empty unless already
        populated) with the given arity, so :meth:`arity` stops
        raising.  Existing storages are reused — the update is O(1).

        Args:
            name: The relation symbol to declare.
            arity: Its column count.

        Returns:
            The updated database (``self`` when already consistent).

        Raises:
            ArityError: If ``name`` already has a different arity.
        """
        existing = self._relations.get(name)
        if existing is not None:
            if existing.arity != arity and existing.size() > 0:
                raise ArityError(
                    f"relation {name!r} holds tuples of arity "
                    f"{existing.arity}, cannot redeclare as {arity}"
                )
            if existing.arity == arity:
                return self
        relations = dict(self._relations)
        relations[name] = InMemoryStorage(frozenset(), arity=arity)
        return Database(self._alphabet, relations)

    def contains(self, name: str, row: tuple[str, ...]) -> bool:
        """Membership test ``row ∈ db(name)``."""
        return self._relations.get(name, EMPTY_STORAGE).contains(row)

    # -- versioned mutation (repro.delta) -------------------------------

    @property
    def lineage(self) -> int:
        """The update-lineage id this version belongs to.

        Databases derived through :meth:`apply` share their ancestor's
        lineage; every other construction (including
        :meth:`with_relation` and :meth:`declare`) starts a fresh one.
        Together with :meth:`relation_version` this lets caches and
        materialized answers key "which database state" without
        hashing tuple sets.
        """
        return self._lineage

    def relation_version(self, name: str) -> int:
        """The monotone version counter of relation ``name``.

        Versions start at 0 and advance to a fresh process-wide tick
        for every relation an :meth:`apply` actually changes, so two
        different descendants of one database never share a version.
        """
        return self._versions.get(name, 0)

    @property
    def versions(self) -> dict[str, int]:
        """``{relation: version}`` for every relation in the database."""
        return {
            name: self._versions.get(name, 0)
            for name in self.relation_names
        }

    def insert(self, name: str, row: Iterable[str]) -> "Database":
        """Functionally insert one row; see :meth:`apply`.

        >>> from repro.core.alphabet import AB
        >>> db = Database(AB, {"R": [("a",)]}).insert("R", ("b",))
        >>> sorted(db.relation("R"))
        [('a',), ('b',)]
        """
        from repro.delta import Delta

        return self.apply(Delta(inserts=((name, tuple(row)),)))

    def delete(self, name: str, row: Iterable[str]) -> "Database":
        """Functionally delete one row; see :meth:`apply`."""
        from repro.delta import Delta

        return self.apply(Delta(deletes=((name, tuple(row)),)))

    def apply(self, delta: "Delta") -> "Database":
        """Apply a :class:`~repro.delta.Delta`, returning a new version.

        Deletes apply before inserts.  Inserted rows are validated
        against the alphabet and the target relation's arity; deleting
        an absent row (or from an unknown relation) is a no-op.  Each
        changed relation's successor comes from
        :func:`~repro.storage.apply_storage_delta`: the backend's own
        ``apply_delta`` hook (every built-in backend has one), or an
        in-memory derivation for storages without it.

        The result shares this database's :attr:`lineage`; every
        relation that actually changed gets a fresh monotone
        :meth:`relation_version`.  A net no-op delta returns ``self``
        unchanged — and unchanged relations keep their exact storage
        objects, so only the changed relations cost anything.  For an
        in-memory relation ``R`` that cost is O(|Δ|) Python work to
        validate the delta plus one C-level copy of ``R``'s frozenset.

        Args:
            delta: The canonical insert/delete sets to apply.

        Returns:
            The new database version (``self`` when nothing changed).

        Raises:
            ArityError: If inserted rows mix arities or contradict the
                relation's known arity.
            AlphabetError: If an inserted string leaves the alphabet.
        """
        if delta.is_empty:
            return self
        relations = dict(self._relations)
        versions = dict(self._versions)
        changed = False
        for name in delta.relations():
            inserts = delta.inserts_for(name)
            deletes = delta.deletes_for(name)
            self._check_relation(name, inserts)
            current = relations.get(name, EMPTY_STORAGE)
            if inserts:
                want = len(next(iter(inserts)))
                known = current.arity
                if known != want and (current.size() > 0 or known != 0):
                    raise ArityError(
                        f"relation {name!r} has arity {known}, cannot "
                        f"insert rows of arity {want}"
                    )
            updated = apply_storage_delta(current, inserts, deletes)
            if updated is current:
                continue
            relations[name] = updated
            versions[name] = next(_VERSION_TICKS)
            changed = True
        if not changed:
            return self
        return Database(
            self._alphabet,
            relations,
            versions=versions,
            lineage=self._lineage,
        )

    def max_string_length(self, *names: str) -> int:
        """``max(R, db)`` of the paper's Eq. (2), over the given relations.

        With no arguments, ranges over every relation in the database.
        Returns 0 for empty relations — the longest string in no tuples
        is the empty one.  Answered from storage statistics, so indexed
        backends never decode their tuples for it.
        """
        selected = names if names else self.relation_names
        longest = 0
        for name in selected:
            stats = self._relations.get(name, EMPTY_STORAGE).stats()
            for column in stats.columns:
                longest = max(longest, column.max_length)
        return longest

    def active_strings(self, *names: str) -> frozenset[str]:
        """Every string occurring in the selected relations."""
        selected = names if names else self.relation_names
        found: set[str] = set()
        for name in selected:
            for row in self._relations.get(name, EMPTY_STORAGE).scan():
                found.update(row)
        return frozenset(found)

    # -- JSON interchange -----------------------------------------------

    @classmethod
    def from_json(
        cls,
        source: "str | os.PathLike[str] | Mapping",
        alphabet: Alphabet | None = None,
        storage_factory: "str | StorageFactory | None" = None,
    ) -> "Database":
        """Build a database from a JSON file path or a parsed mapping.

        Two layouts are accepted:

        * the **bare** form ``{"R1": [["ab", "ba"], …], …}`` (the CLI's
          historical ``--db`` format) — requires ``alphabet``;
        * the **self-describing** form produced by :meth:`to_json`,
          ``{"alphabet": "ab", "relations": {…}}`` — ``alphabet`` is
          then optional, and must match the embedded one when given.

        Every stored string is validated against the alphabet (the
        constructor's usual boundary check), so a successful round trip
        through ``to_json``/``from_json`` reproduces the database
        exactly.

        Args:
            source: The JSON path or parsed mapping.
            alphabet: The alphabet (required for the bare layout).
            storage_factory: Forwarded to the constructor's
                ``storage=`` — a kind name (``"memory"``, ``"ngram"``)
                or a factory callable deciding how each relation is
                held.

        Returns:
            The populated database.
        """
        if isinstance(source, (str, os.PathLike)):
            with open(source) as handle:
                raw = json.load(handle)
        elif isinstance(source, Mapping):
            raw = source
        else:
            raise AlphabetError(
                f"from_json expects a path or mapping, got {type(source).__name__}"
            )
        if not isinstance(raw, Mapping):
            raise ArityError("database JSON must be an object of relations")
        if (
            set(raw) <= {"alphabet", "relations"}
            and isinstance(raw.get("relations"), Mapping)
        ):
            embedded = raw.get("alphabet")
            if embedded is not None:
                candidate = Alphabet(embedded)
                if alphabet is not None and alphabet != candidate:
                    raise AlphabetError(
                        f"database declares alphabet {candidate}, "
                        f"caller supplied {alphabet}"
                    )
                alphabet = candidate
            relations = raw["relations"]
        else:
            relations = raw
        if alphabet is None:
            raise AlphabetError(
                "no alphabet: pass one explicitly or use the "
                '{"alphabet": …, "relations": …} layout'
            )
        frozen: dict[str, list[tuple[str, ...]]] = {}
        for name, rows in relations.items():
            if not isinstance(rows, (list, tuple)):
                raise ArityError(
                    f"relation {name!r} must be a list of rows, got "
                    f"{type(rows).__name__}"
                )
            frozen[name] = [tuple(row) for row in rows]
        return cls(alphabet, frozen, storage=storage_factory)

    def to_json(self) -> dict:
        """The self-describing JSON mapping of this database.

        Rows are sorted, so the output is deterministic and
        ``Database.from_json(db.to_json()) == db``.
        """
        return {
            "alphabet": "".join(self._alphabet.symbols),
            "relations": {
                name: [list(row) for row in sorted(store.tuples)]
                for name, store in sorted(self._relations.items())
            },
        }

    def dump_json(self, path: "str | os.PathLike[str]") -> None:
        """Write :meth:`to_json` to ``path`` (UTF-8, indented)."""
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, ensure_ascii=False)
            handle.write("\n")

    def with_relation(
        self,
        name: str,
        tuples: "Iterable[tuple[str, ...]] | RelationStorage",
        storage: "str | StorageFactory | None" = None,
    ) -> "Database":
        """Functional update returning a new database.

        Only the *changed* relation is validated and (re)stored; every
        other relation's already-validated storage is adopted untouched,
        so the update costs O(changed relation), not O(database).

        Args:
            name: The relation symbol to replace.
            tuples: Its new rows (or a pre-built storage to adopt).
            storage: How to hold the new rows; defaults to in-memory.

        Returns:
            The updated database.
        """
        relations: dict = dict(self._relations)
        relations[name] = tuples
        return Database(self._alphabet, relations, storage=storage)

    def with_storage(
        self, storage: "str | StorageFactory | None"
    ) -> "Database":
        """Re-house every relation under a different storage backend.

        The tuples are already validated, so only the backends are
        rebuilt — e.g. ``db.with_storage("ngram")`` indexes an existing
        in-memory database.

        Args:
            storage: The kind name or factory for the new backends.

        Returns:
            An equal database over the new storages.
        """
        factory = resolve_storage_factory(storage)
        relations = {
            name: factory(name, store.tuples, self._alphabet)
            for name, store in self._relations.items()
        }
        return Database(self._alphabet, relations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        if self._alphabet != other._alphabet:
            return False
        if set(self._relations) != set(other._relations):
            return False
        return all(
            store.tuples == other._relations[name].tuples
            and store.arity == other._relations[name].arity
            for name, store in self._relations.items()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self._alphabet,
                    tuple(
                        (name, store.arity, store.tuples)
                        for name, store in sorted(self._relations.items())
                    ),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}[{store.arity}]:{store.size()}"
            for name, store in sorted(self._relations.items())
        )
        return f"Database({parts})"


def empty_database(alphabet: Alphabet) -> Database:
    """A database assigning every symbol the empty relation."""
    return Database(alphabet, {})
