"""Materialized query answers maintained incrementally under deltas.

A :class:`MaterializedAnswer` pins one query's answer to one database
version: the engine session stores the per-branch row sets of the
query's normalized plan together with the database lineage, the
version counter of every relation the answer depends on, and the
per-relation maximum string lengths the certified cap was derived
from.  A later evaluation of the same query against the same version
is then a pure lineage-and-versions comparison — no statistics pass,
no replanning.

When a delta is applied, :meth:`MaterializedStore.maintain` walks the
stored entries and repairs each one per branch:

* a branch referencing none of the touched relations keeps its rows
  (``delta.materialize.branch_skipped``);
* a branch whose touched relations are insert-only and appear only
  positively is maintained *semi-naively*: each step on a touched
  relation is re-executed restricted to the delta rows, with every
  other step on the full new database, and the results are unioned
  into the stored rows (``delta.materialize.branch_semi_naive``);
* any other branch — deletes, or a touched relation under negation —
  is recomputed from scratch (``delta.materialize.branch_recomputed``).

Entries fall back to full eviction when the plan root is naive, when
the delta may move the certified length cap, or when it inserts a
string outside the entry's ``Σ^{<=cap}`` (the normalizer plans such
a query naively, ``data-outside-domain``): the cap is a
monotone function of per-relation maximum string lengths, so an
insert-only delta whose strings are no longer than the recorded maxima
provably keeps the cap; anything riskier drops the entry
(``delta.materialize.cap_dropped``) and the next evaluation recomputes
from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable

from repro.core.syntax import RelAtom
from repro.delta.log import Delta, Row
from repro.engine.caches import CacheStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.alphabet import Alphabet
    from repro.core.database import Database
    from repro.ir.plan import ConjunctivePlan, QueryPlan

#: Bound on retained materialized answers (oldest evicted first).
MAX_ENTRIES = 256


@dataclass
class MaterializedAnswer:
    """One query's answer, pinned to one database version.

    Attributes:
        key: The structural query key (formula, head, alphabet and the
            explicit length, or ``None`` when the cap was certified).
        plan: The normalized plan whose branches produced the rows.
        alphabet: The query alphabet (pads unmentioned head variables).
        cap: The truncation / generation bound the answer was computed
            under.
        explicit: Whether ``cap`` was user-supplied; an explicit cap
            never moves under a delta, a certified one can.
        lineage: The database lineage the versions belong to.
        versions: ``(relation, version)`` pairs for every relation in
            :attr:`relations`, in that order.
        relations: The relations the answer depends on — the plan's
            step relations plus every relation the source formula
            mentions (the cap derives from the formula, so a relation
            simplified out of the plan still pins the cap).
        max_lengths: Per-relation maximum string length at
            materialization time, for the cap-stability check (a
            maintained entry's maxima never move).
        branch_rows: One frozen answer set per plan branch, in
            ``plan.branches()`` order, already projected and padded to
            the full head.
        answer: The union of :attr:`branch_rows`.
    """

    key: Hashable
    plan: "QueryPlan"
    alphabet: "Alphabet"
    cap: int
    explicit: bool
    lineage: int
    versions: tuple[tuple[str, int], ...]
    relations: tuple[str, ...]
    max_lengths: dict[str, int]
    branch_rows: tuple[frozenset[Row], ...]
    answer: frozenset[Row]

    def matches(self, db: "Database") -> bool:
        """Whether this entry is exact for database version ``db``.

        Args:
            db: The database to compare lineage and versions against.

        Returns:
            ``True`` when the lineage matches and every dependent
            relation still carries the recorded version counter.
        """
        if self.lineage != db.lineage:
            return False
        return all(
            db.relation_version(name) == version
            for name, version in self.versions
        )


def _branch_refs(branch: "ConjunctivePlan") -> tuple[dict[str, list[int]], set[str]]:
    """Positive step indices and negated relation names of a branch."""
    positive: dict[str, list[int]] = {}
    negated: set[str] = set()
    for index, step in enumerate(branch.steps):
        if not isinstance(step.atom, RelAtom):
            continue
        if step.negated:
            negated.add(step.atom.name)
        else:
            positive.setdefault(step.atom.name, []).append(index)
    return positive, negated


@dataclass
class MaterializedStore:
    """A bounded store of :class:`MaterializedAnswer` entries.

    Quacks enough like a :class:`~repro.engine.caches.KeyedCache` for
    :meth:`~repro.engine.caches.EngineStats.register_cache`: it has a
    ``name`` and a :class:`~repro.engine.caches.CacheStats`, so
    materialization hits and misses show up in ``--stats`` alongside
    the compile and plan caches.
    """

    name: str = "materialize"
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: dict[Hashable, MaterializedAnswer] = field(default_factory=dict)

    def lookup(self, key: Hashable, db: "Database") -> MaterializedAnswer | None:
        """Return the entry for ``key`` exact at ``db``, if any.

        Args:
            key: The structural query key.
            db: The database version the caller is evaluating against.

        Returns:
            The matching entry (a cache hit), or ``None`` (a miss —
            the caller computes and calls :meth:`put`).
        """
        entry = self._entries.get(key)
        if entry is not None and entry.matches(db):
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        return None

    def put(self, entry: MaterializedAnswer) -> MaterializedAnswer:
        """Store ``entry``, evicting the oldest entry when full."""
        if (
            entry.key not in self._entries
            and len(self._entries) >= MAX_ENTRIES
        ):
            self._entries.pop(next(iter(self._entries)))
        self._entries[entry.key] = entry
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    # -- incremental maintenance ----------------------------------------

    def maintain(
        self,
        old_db: "Database",
        new_db: "Database",
        delta: Delta,
        session: Any,
    ) -> dict[str, int]:
        """Repair stored entries after ``old_db.apply(delta) == new_db``.

        Entries that were exact at ``old_db`` are brought forward to
        ``new_db``; entries pinned to other versions are left alone
        (their version vectors can never falsely match, so they stay
        valid for the version they describe).

        Args:
            old_db: The database version the delta was applied to.
            new_db: The resulting version.
            delta: The applied delta.
            session: The owning :class:`repro.engine.QueryEngine`,
                backing compile / generate / domain caches during
                branch re-execution.

        Returns:
            Counters: entries ``maintained`` / ``cap_dropped`` and
            branches ``branch_skipped`` / ``branch_semi_naive`` /
            ``branch_recomputed``.
        """
        from repro.ir.execute import execute_branch
        from repro.observability import current_tracer

        tracer = current_tracer()
        touched = set(delta.relations())
        counts = {
            "maintained": 0,
            "cap_dropped": 0,
            "branch_skipped": 0,
            "branch_semi_naive": 0,
            "branch_recomputed": 0,
        }
        for key in list(self._entries):
            entry = self._entries[key]
            if not entry.matches(old_db):
                continue
            affected = touched & set(entry.relations)
            if not affected:
                continue
            if not self._cap_stable(entry, delta, affected):
                del self._entries[key]
                counts["cap_dropped"] += 1
                continue
            self._maintain_entry(
                entry, new_db, delta, affected, session, execute_branch, counts
            )
            counts["maintained"] += 1
        for name, value in counts.items():
            if value:
                tracer.add(f"delta.materialize.{name}", value)
        return counts

    @staticmethod
    def _cap_stable(
        entry: MaterializedAnswer, delta: Delta, affected: set[str]
    ) -> bool:
        """Whether the entry's plan and cap provably survive ``delta``.

        No insert may bring a string outside ``Σ^{<=cap}``: a longer
        string, or one with a symbol outside the query alphabet, makes
        the normalizer plan the query naively.  The certified cap is
        moreover a monotone function of per-relation maximum string
        lengths, so it is stable exactly when no affected relation
        loses a maximal-length row or gains a longer one; an explicit
        cap never moves.  O(|Δ|).
        """
        symbols = frozenset(entry.alphabet.symbols)
        for name in affected:
            limit = entry.cap
            if not entry.explicit:
                limit = entry.max_lengths.get(name, 0)
                for row in delta.deletes_for(name):
                    if any(len(value) >= limit for value in row):
                        return False
            for row in delta.inserts_for(name):
                if any(
                    len(value) > limit or not symbols.issuperset(value)
                    for value in row
                ):
                    return False
        return True

    def _maintain_entry(
        self,
        entry: MaterializedAnswer,
        new_db: "Database",
        delta: Delta,
        affected: set[str],
        session: Any,
        execute_branch: Any,
        counts: dict[str, int],
    ) -> None:
        """Repair one entry's branches in place and re-pin its version."""
        from repro.ir.cost import semi_naive_estimate

        branches = entry.plan.branches()
        rows = list(entry.branch_rows)
        for index, branch in enumerate(branches):
            positive, negated = _branch_refs(branch)
            referenced = affected & (set(positive) | negated)
            if not referenced:
                counts["branch_skipped"] += 1
                continue
            deletes = any(delta.deletes_for(name) for name in referenced)
            runs = sum(len(positive[name]) for name in referenced - negated)
            delta_rows = sum(
                len(delta.inserts_for(name)) for name in referenced
            )
            costly = (
                runs * semi_naive_estimate(branch, delta_rows)
                >= branch.est_cost
            )
            if deletes or referenced & negated or costly:
                rows[index] = execute_branch(
                    branch,
                    entry.plan.head,
                    new_db,
                    entry.alphabet,
                    entry.cap,
                    session,
                )
                counts["branch_recomputed"] += 1
                continue
            merged = set(rows[index])
            for name in sorted(referenced):
                inserted = delta.inserts_for(name)
                for step_index in positive[name]:
                    merged |= execute_branch(
                        branch,
                        entry.plan.head,
                        new_db,
                        entry.alphabet,
                        entry.cap,
                        session,
                        restrict={step_index: inserted},
                    )
            rows[index] = frozenset(merged)
            counts["branch_semi_naive"] += 1
        entry.branch_rows = tuple(rows)
        entry.answer = frozenset().union(*rows) if rows else frozenset()
        entry.lineage = new_db.lineage
        entry.versions = tuple(
            (name, new_db.relation_version(name)) for name in entry.relations
        )
        # ``max_lengths`` needs no re-pin: a certified entry got here
        # only if the delta kept every affected maximum (_cap_stable),
        # and explicit-cap entries never read it.
